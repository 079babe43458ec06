"""The Table 1 hook API layer: layouts, packers, adapter plumbing."""

import pytest

from repro.bpf import BPFError, RuntimeFault, VM, Verifier, compile_policy
from repro.concord.api import (
    CMP_NODE_LAYOUT,
    EVENT_IDS,
    LAYOUT_FOR_HOOK,
    LOCK_EVENT_LAYOUT,
    SCHEDULE_WAITER_LAYOUT,
    SKIP_SHUFFLE_LAYOUT,
    make_hook_fn,
)
from repro.kernel import Kernel
from repro.locks import ShflLock
from repro.locks.base import ALL_HOOKS, HOOK_CMP_NODE, HOOK_LOCK_ACQUIRED
from repro.locks.shfllock import ShflNode
from repro.sim import Topology, ops


@pytest.fixture
def kernel():
    return Kernel(Topology(sockets=2, cores_per_socket=4), seed=1)


class TestLayouts:
    def test_every_hook_has_a_layout(self):
        assert set(LAYOUT_FOR_HOOK) == set(ALL_HOOKS)

    def test_layout_offsets_are_dense(self):
        for layout in (CMP_NODE_LAYOUT, SKIP_SHUFFLE_LAYOUT,
                       SCHEDULE_WAITER_LAYOUT, LOCK_EVENT_LAYOUT):
            for index, field in enumerate(layout.fields):
                assert layout.offset_of(field) == index * 8
            assert layout.size == len(layout.fields) * 8

    def test_pack_defaults_missing_to_zero(self):
        values = CMP_NODE_LAYOUT.pack({"curr_tid": 9})
        assert values[CMP_NODE_LAYOUT.fields.index("curr_tid")] == 9
        assert sum(values) == 9

    def test_event_ids_cover_profiling_hooks(self):
        assert sorted(EVENT_IDS.values()) == [0, 1, 2, 3]


class TestHookFn:
    def _program(self, source, hook):
        program = compile_policy(source, LAYOUT_FOR_HOOK[hook])
        Verifier().verify(program)
        return program

    def test_layout_mismatch_rejected(self):
        program = self._program("def f(ctx):\n    return 0\n", HOOK_CMP_NODE)
        with pytest.raises(ValueError, match="layout"):
            make_hook_fn(HOOK_LOCK_ACQUIRED, program, VM(), lambda lock: 1)

    def test_cmp_node_env_packed_from_nodes(self, kernel):
        """The program must see the actual node metadata."""
        program = self._program(
            "def f(ctx):\n    return ctx.curr_socket * 100 + ctx.shuffler_socket\n",
            HOOK_CMP_NODE,
        )
        fn = make_hook_fn(HOOK_CMP_NODE, program, VM(), lambda lock: 1)
        lock = ShflLock(kernel.engine, name="x")
        result = {}

        def driver(task_a_cpu, task_b_cpu):
            def body(task):
                yield ops.Delay(1)

            t_shuffler = kernel.spawn(body, cpu=task_a_cpu)
            t_curr = kernel.spawn(body, cpu=task_b_cpu)
            def run(task):
                yield ops.Delay(1)
                shuffler = ShflNode(kernel.engine, t_shuffler)
                curr = ShflNode(kernel.engine, t_curr)
                value, cost = fn(
                    {"task": task, "lock": lock, "shuffler_node": shuffler,
                     "curr_node": curr}
                )
                result["value"] = value
                result["cost"] = cost

            kernel.spawn(run, cpu=0)
            kernel.run()

        driver(0, 5)  # sockets 0 and 1
        assert result["value"] == 100 * 1 + 0
        assert result["cost"] > 0

    def test_wait_time_computed_from_enqueue(self, kernel):
        program = self._program("def f(ctx):\n    return ctx.curr_wait_ns\n", HOOK_CMP_NODE)
        fn = make_hook_fn(HOOK_CMP_NODE, program, VM(), lambda lock: 1)
        lock = ShflLock(kernel.engine, name="x")
        result = {}

        def run(task):
            node = ShflNode(kernel.engine, task)  # enqueue_time = now
            yield ops.Delay(5_000)
            value, _cost = fn(
                {"task": task, "lock": lock, "shuffler_node": node, "curr_node": node}
            )
            result["wait"] = value

        kernel.spawn(run, cpu=0)
        kernel.run()
        assert result["wait"] == 5_000

    def test_lock_event_packer_includes_event_id(self, kernel):
        program = self._program("def f(ctx):\n    return ctx.event\n", HOOK_LOCK_ACQUIRED)
        fn = make_hook_fn(HOOK_LOCK_ACQUIRED, program, VM(), lambda lock: 1)
        lock = ShflLock(kernel.engine, name="x")
        result = {}

        def run(task):
            yield ops.Delay(1)
            value, _ = fn({"task": task, "lock": lock})
            result["event"] = value

        kernel.spawn(run, cpu=0)
        kernel.run()
        assert result["event"] == EVENT_IDS[HOOK_LOCK_ACQUIRED]

    def test_unverified_program_raises_when_fired(self, kernel):
        program = compile_policy(
            "def f(ctx):\n    return ctx.lock_id\n", LAYOUT_FOR_HOOK[HOOK_LOCK_ACQUIRED]
        )
        fn = make_hook_fn(HOOK_LOCK_ACQUIRED, program, VM(), lambda lock: 1)
        lock = ShflLock(kernel.engine, name="x")
        raised = []

        def run(task):
            yield ops.Delay(1)
            try:
                fn({"task": task, "lock": lock})
            except BPFError as exc:
                raised.append(exc)

        kernel.spawn(run, cpu=0)
        kernel.run()
        assert len(raised) == 1 and not isinstance(raised[0], RuntimeFault)
        assert "unverified" in str(raised[0])
        assert program.run_count == 0

    def test_lock_id_resolver_used(self, kernel):
        program = self._program("def f(ctx):\n    return ctx.lock_id\n", HOOK_LOCK_ACQUIRED)
        fn = make_hook_fn(HOOK_LOCK_ACQUIRED, program, VM(), lambda lock: 777)
        lock = ShflLock(kernel.engine, name="x")
        result = {}

        def run(task):
            yield ops.Delay(1)
            value, _ = fn({"task": task, "lock": lock})
            result["lock_id"] = value

        kernel.spawn(run, cpu=0)
        kernel.run()
        assert result["lock_id"] == 777

    def test_boost_tag_propagates(self, kernel):
        program = self._program("def f(ctx):\n    return ctx.curr_boost\n", HOOK_CMP_NODE)
        fn = make_hook_fn(HOOK_CMP_NODE, program, VM(), lambda lock: 1)
        lock = ShflLock(kernel.engine, name="x")
        result = {}

        def run(task):
            yield ops.Delay(1)
            task.tags["boost"] = 3
            node = ShflNode(kernel.engine, task)
            value, _ = fn(
                {"task": task, "lock": lock, "shuffler_node": node, "curr_node": node}
            )
            result["boost"] = value

        kernel.spawn(run, cpu=0)
        kernel.run()
        assert result["boost"] == 3
