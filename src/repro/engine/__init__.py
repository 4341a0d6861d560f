"""The child expansion of the ranked loop.

``RankedTriang⟨κ⟩`` spends almost all of its per-answer delay solving
Lawler–Murty child partitions: after each pop, one constrained
``MinTriang⟨κ[I,X]⟩`` DP run per pivot.
:func:`~repro.engine.strategy.expand_job` is that run;
:class:`~repro.api.stream.RankedStream` calls it once per child, in
pivot order, through the module attribute
``repro.engine.strategy.expand_job``.
"""
