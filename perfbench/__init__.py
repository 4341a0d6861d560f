"""End-to-end benchmark of the ranked enumerator (see ``perfbench/LEDGER.md``)."""
