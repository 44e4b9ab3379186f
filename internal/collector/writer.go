package collector

// Writer is a per-goroutine ingestion front for a ShardedCollector: reports
// accumulate in a goroutine-local per-report-cell buffer and flush to the
// collector's shards in batches, so a high-rate ingester pays one shard
// mutex acquisition per flushEvery reports instead of one shared-memory
// write per report. Each Writer is pinned to one shard at construction
// (round-robin), so a pool of Writers spreads across shards without any
// per-report cursor traffic.
//
// A Writer is NOT safe for concurrent use — that is the point; give each
// ingesting goroutine its own. Buffered reports are invisible to queries
// until they flush, and a flushed batch lands atomically exactly like
// IngestBatch.
//
// Lifecycle: the owning goroutine must call Close before returning — a
// Writer that is dropped with buffered reports silently loses them, which is
// exactly the bug class a long-lived server hits when a connection handler
// exits early. Close flushes and then rejects further ingestion with
// ErrWriterClosed; Close and Flush are both idempotent, so "defer w.Close()"
// plus explicit consistency-point flushes compose safely. On any flush
// error the buffer is left intact (nothing dropped, nothing double-counted)
// and the flush can simply be retried.
type Writer struct {
	c       *ShardedCollector
	sh      *shard
	pending []int // per-report-cell buffered counts
	n       int   // buffered reports
	limit   int   // flush threshold
	closed  bool
}

// NewWriter returns a buffered writer pinned to the next shard in
// round-robin order. flushEvery <= 0 picks a default of 256 reports per
// flush.
func (c *ShardedCollector) NewWriter(flushEvery int) *Writer {
	if flushEvery <= 0 {
		flushEvery = 256
	}
	idx := int(c.cursor.Add(1)-1) & (len(c.set.shards) - 1)
	return &Writer{
		c:       c,
		sh:      &c.set.shards[idx],
		pending: make([]int, c.set.width),
		limit:   flushEvery,
	}
}

// Ingest buffers one encoded report, flushing when the buffer reaches the
// writer's threshold. Validation happens here, so a bad report is reported
// immediately and never contaminates a flush. A returned flush error means
// the report (and the rest of the buffer) is still buffered, not lost.
func (w *Writer) Ingest(report int) error {
	// Close truncates pending to length 0, so a closed writer funnels every
	// report into this cold branch — the hot path pays no closed check.
	if report < 0 || report >= len(w.pending) {
		if w.closed {
			return ErrWriterClosed
		}
		return w.c.badReport(report)
	}
	w.pending[report]++
	w.n++
	w.c.ins.observeIngest(report)
	if w.n >= w.limit {
		return w.Flush()
	}
	return nil
}

// Buffered returns the number of reports waiting in the local buffer.
func (w *Writer) Buffered() int { return w.n }

// Flush lands the buffered reports on the writer's shard as one atomic
// batch. The buffer is cleared only after the batch has landed, so an error
// leaves every buffered report in place for a retry — a failed flush never
// drops or double-counts. A flush of an empty buffer (including any flush
// after Close, which drains the buffer) is a no-op.
func (w *Writer) Flush() error {
	if w.n == 0 {
		return nil
	}
	w.sh.mu.Lock()
	for k, v := range w.pending {
		if v != 0 {
			w.sh.counts[k].Add(int64(v))
		}
	}
	w.sh.mu.Unlock()
	flushed := w.n
	for k := range w.pending {
		w.pending[k] = 0
	}
	w.n = 0
	w.c.ins.observeBatch(flushed, w.c.Count)
	return nil
}

// Close flushes any buffered reports and retires the writer: subsequent
// Ingest calls return ErrWriterClosed. Closing an already-closed writer is a
// no-op. If the final flush fails the writer stays open with its buffer
// intact so the close can be retried without losing reports.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	if err := w.Flush(); err != nil {
		return err
	}
	w.closed = true
	w.pending = w.pending[:0]
	return nil
}
