package crypto

import "dpstore/internal/obs"

// Batch-size histograms for the kernel entry points. Batch sizes are
// ClassExact: every scheme derives them from its public parameters (Z,
// tree height, eviction rate), never from which record is accessed — the
// transcript-shape regressions pin exactly this, so the histograms add
// observability without adding leakage. One atomic record per batch; the
// per-record seal/open loops stay untouched (their allocation budgets are
// CI-gated).
var (
	obsSealBatch = obs.NewHist("dpstore_crypto_seal_batch_records",
		obs.WithHelp("records sealed per SealBatch call"))
	obsOpenBatch = obs.NewHist("dpstore_crypto_open_batch_records",
		obs.WithHelp("records opened per OpenBatch call"))
)
