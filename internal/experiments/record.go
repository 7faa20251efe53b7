package experiments

// Artifact kinds results are recorded under in a ledger. Exported so the
// recorders (gliderd's executor, cmd/experiments -ledger, perfbench) and
// the auditor (cmd/audit, which branches on them when re-simulating) agree
// on one vocabulary.
const (
	LedgerKindCell     = "cell"
	LedgerKindPredict  = "predict"
	LedgerKindEstimate = "estimate"
	LedgerKindSweep    = "sweep"
	LedgerKindZoo      = "zoo"
)
