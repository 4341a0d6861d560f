"""The child expansion of the ranked loop.

``RankedTriang⟨κ⟩`` spends almost all of its work per answer solving
Lawler–Murty child partitions: for each popped answer, one constrained
``MinTriang⟨κ[I,X]⟩`` DP run per pivot, solved when the next pop or a
reader of the frontier needs them.
:func:`~repro.engine.strategy.expand_job` is that run;
:class:`~repro.api.stream.RankedStream` calls it once per child, in
pivot order, through the module attribute
``repro.engine.strategy.expand_job``.
"""
