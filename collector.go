package optrr

import (
	"optrr/internal/collector"
	"optrr/internal/randx"
)

// This file re-exports the collection-campaign layer: local randomization at
// the respondent, incremental aggregation at the collector, and running
// reconstruction with confidence intervals.

// Collector accumulates disguised reports and answers distribution queries
// at any point during collection.
type Collector = collector.Collector

// CollectionSummary is a point-in-time view of a collection: the
// reconstruction and its confidence half-widths.
type CollectionSummary = collector.Summary

// Respondent holds one private value and submits disguised reports.
type Respondent = collector.Respondent

// ShardedCollector is the concurrency-safe collector for any Scheme: it
// stripes counts across independently locked shards so many goroutines can
// ingest at once. Queries are consistent points in time; over a dense
// Matrix they match Collector bit for bit on identical streams, and over a
// sketch they answer point queries and heavy-hitter scans.
type ShardedCollector = collector.ShardedCollector

// NewCollector returns a collector for reports disguised with m. It is not
// safe for concurrent use; see NewShardedCollector.
func NewCollector(m *Matrix) *Collector { return collector.New(m) }

// NewShardedCollector returns a concurrency-safe collector for reports
// encoded by scheme — a dense *Matrix or a sketch — striped across the
// given number of shards (<= 0 picks a default sized to GOMAXPROCS).
func NewShardedCollector(scheme Scheme, shards int) *ShardedCollector {
	return collector.NewSharded(scheme, shards)
}

// RestoreShardedCollector rebuilds a sharded collector from a snapshot
// produced by its MarshalJSON, for crash recovery of a running campaign
// under any scheme (older dense {matrix, counts, total} snapshots restore
// too).
func RestoreShardedCollector(data []byte, shards int) (*ShardedCollector, error) {
	return collector.RestoreSharded(data, shards)
}

// NewRespondent prepares a respondent holding the given private value.
func NewRespondent(m *Matrix, value int) (*Respondent, error) {
	return collector.NewRespondent(m, value)
}

// SimulateCollection runs a complete campaign: records values drawn from the
// prior, disguised with m, ingested into a fresh collector.
func SimulateCollection(m *Matrix, prior []float64, records int, rng *randx.Source) (*Collector, error) {
	return collector.Simulate(m, prior, records, rng)
}
