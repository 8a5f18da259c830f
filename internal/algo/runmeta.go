package algo

// RunMeta is the provenance of one sorted run of pairs: which producer
// emitted it and which key/time range it covers. The runtime orders a
// closing window's runs by RunMeta before merging, so the k-way merge's
// tie-break (equal keys visit in run order) is deterministic regardless
// of the order extraction tasks happened to finish in — a prerequisite
// for pane-based sharing, where the same run participates in several
// windows' merges and order-sensitive aggregators must see the same
// pair sequence the unshared path produces.
type RunMeta struct {
	// Origin identifies the producer (the native runtime uses the
	// source bundle ID, which is assigned in ingest order).
	Origin uint64
	// Lo is the lower bound of the run's coverage (the native runtime
	// uses the pane or window start the run was scattered into).
	Lo uint64
}
