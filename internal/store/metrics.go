package store

import (
	"time"

	"incdb/internal/obs"
)

// Observer is the durability subsystem's one instrumentation hook: the
// latency histograms and the distributed-tracing callback. Every field is
// optional (a nil histogram or callback is skipped), and the whole struct
// may be nil — the store then runs exactly as before, paying nothing. The
// server constructs one from its obs.Registry and tracer and passes it
// through Options; every SessionLog of the store shares it, so the
// histograms aggregate across sessions (per-session sequence state is
// exported separately via scrape-time collectors over Stats()).
type Observer struct {
	// AppendSeconds observes one group-commit flush end to end (write +
	// fsync): the latency a load pays when it leads the flush.
	AppendSeconds *obs.Histogram
	// FsyncSeconds observes the fsync alone — the floor group commit
	// amortizes.
	FsyncSeconds *obs.Histogram
	// RecordsPerFsync observes how many buffered records one fsync made
	// durable: the group-commit batch size.
	RecordsPerFsync *obs.Histogram
	// FlushBytes observes the byte size of one flushed batch.
	FlushBytes *obs.Histogram
	// SnapshotSeconds observes a snapshot install end to end (encode,
	// fsync, rename, WAL truncation) — the compaction pause.
	SnapshotSeconds *obs.Histogram

	// Flush is called by the group-commit flush leader once per traced
	// record in a durable batch, after the fsync: the record's carried
	// traceparent, the batch it rode in (records, bytes), the fsync start
	// time and its duration. The server turns each call into a wal.fsync
	// span parented on the committing request's span. While Flush is nil
	// the log does not even collect traceparents.
	Flush func(traceparent string, records, bytes int, start time.Time, d time.Duration)
}

// observe is the nil-safe recording helper shared by the hook sites.
func observe(h *obs.Histogram, v float64) {
	if h != nil {
		h.Observe(v)
	}
}
