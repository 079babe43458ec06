"""Command-line tools: exhibit regeneration (:mod:`.figures`) and
control-plane scenarios (:mod:`.concordd`, written in the scenario kit
of :mod:`.scenario`).

Nothing is imported eagerly: ``import repro`` must not load the control
plane, and ``python -m repro.tools.concordd`` must find its module
unimported.
"""
