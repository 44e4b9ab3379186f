// Package rrserver implements the LDP collection service behind cmd/rrserver:
// an HTTP/JSON front over one collector.ShardedCollector, realizing the
// paper's Section I deployment literally — a fleet of respondents disguises
// locally (internal/rrclient) and POSTs only encoded reports; this server
// aggregates them and debiases on demand to answer distribution queries with
// confidence half-widths.
//
// Endpoints (mounted on an obs debug server via obs.ServeMux, so /metrics,
// /healthz, expvar and pprof ride along):
//
//	POST /v1/report       {"report": k}        ingest one encoded report
//	POST /v1/reports      {"reports": [k...]}  ingest a batch atomically
//	GET  /v1/estimate     debiased estimate + confidence half-widths;
//	                      ?z= overrides the quantile. A dense matrix scheme
//	                      returns the full domain and supports ?margin=
//	                      (projected report count to reach the target).
//	                      Other schemes answer point queries only:
//	                      ?categories=3,17,42 is required and ?margin= is
//	                      rejected.
//	GET  /v1/scheme       the deployed disguise scheme (clients sample
//	                      locally); ETagged with the scheme version, so
//	                      If-None-Match polling is a 304 until redeployment
//	GET  /v1/heavyhitters ?threshold= (required) frequency floor, ?limit=
//	                      caps the result; scans the original domain
//
// The service is generic over rr.Scheme: one collector, one snapshot format
// and one recovery path serve a dense *rr.Matrix and a count-mean sketch
// (internal/sketch) alike, the sketch keeping server memory independent of
// the domain size. Apart from the legacy matrix field of /v1/scheme, the
// only scheme-dependent branch is /v1/estimate: the dense scheme's
// closed-form variance (Theorem 6) backs full-domain estimates and margin
// projections, which the collector refuses with collector.ErrUnsupported
// for any other scheme.
//
// Request bodies are capped before they are decoded, at a size derived from
// MaxBatch; a larger body is refused with 413 and ingests nothing.
//
// The server periodically persists a JSON snapshot of the collection state
// and restores it at boot; a corrupt or mismatched snapshot is rejected by
// the typed validation in collector.RestoreSharded and the scheme
// fingerprint check of Merge, and the server falls back to a fresh
// collector with a logged warning rather than serving poisoned estimates.
package rrserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"optrr/internal/collector"
	"optrr/internal/obs"
	"optrr/internal/rr"
	"optrr/internal/rrapi"
)

// DefaultZ is the confidence quantile estimates are served at when the
// config leaves it zero (1.96 ≈ 95% normal coverage).
const DefaultZ = 1.96

// DefaultMaxBatch caps POST /v1/reports bodies when the config leaves
// MaxBatch zero. One batch lands under a single shard mutex, so the cap
// bounds both memory per request and the longest write a query can wait on.
const DefaultMaxBatch = 1 << 17

// The request body limit is MaxBatch·bytesPerReport + bodyOverhead bytes:
// room for MaxBatch of the widest JSON integers, each with a separator and
// some whitespace, inside the enclosing object.
const (
	bytesPerReport = 24
	bodyOverhead   = 1 << 10
)

// Config parameterizes a collection service.
type Config struct {
	// Scheme is the deployed disguise scheme (required): a dense
	// *rr.Matrix for classic full-domain collection or a sketch scheme for
	// large domains.
	Scheme rr.Scheme
	// Shards is the collector shard count (<= 0 picks the GOMAXPROCS
	// default).
	Shards int
	// Z is the confidence quantile for /v1/estimate (0 means DefaultZ).
	Z float64
	// SnapshotPath enables crash recovery: the collection state is restored
	// from this file at construction and persisted to it periodically and on
	// shutdown. Empty disables persistence.
	SnapshotPath string
	// SnapshotEvery is the persistence period (0 means 30s).
	SnapshotEvery time.Duration
	// MaxBatch caps the reports accepted in one POST /v1/reports
	// (0 means DefaultMaxBatch) and sizes the request body limit.
	MaxBatch int
	// Recorder receives collector and server trace events; nil records
	// nothing.
	Recorder obs.Recorder
	// Registry collects server metrics; nil uses a private registry.
	Registry *obs.Registry
	// Logf is the warning/lifecycle logger (nil means the stdlib log
	// package).
	Logf func(format string, args ...any)
}

// Server is the collection service: the collector plus the HTTP handlers
// and the snapshot loop. Construct with New, mount with Register, run the
// persistence loop with Run.
type Server struct {
	cfg       Config
	schemeEnv json.RawMessage // kind-tagged envelope, marshaled once
	version   string          // rr.SchemeVersion fingerprint, doubles as the ETag
	maxBody   int64           // request body limit in bytes
	col       *collector.ShardedCollector
	rec       obs.Recorder
	logf      func(string, ...any)
	restored  bool

	ingestLat    *obs.Histogram // rrserver.ingest_ns: per-request ingest latency
	httpErrs     *obs.Counter   // rrserver.http_errors
	snapshots    *obs.Counter   // rrserver.snapshots
	snapshotErrs *obs.Counter   // rrserver.snapshot_errors
	snapshotSize *obs.Gauge     // rrserver.snapshot_bytes
}

// boundedEstimator is the optional scheme capability of attaching
// distribution-free confidence half-widths to sketch point queries
// (implemented by sketch.CMSScheme). The server stays decoupled from the
// sketch package; any scheme exposing the method gets half-widths on
// point-query /v1/estimate answers.
type boundedEstimator interface {
	EstimateWithBound(counts []int, categories []int, z, ell2 float64) ([]float64, []float64, error)
}

// New builds the service and, when cfg.SnapshotPath names an existing file,
// attempts crash recovery. Recovery is strictly validated: a snapshot that
// fails the collector's integrity checks, or whose scheme differs from the
// deployed one (reports disguised under a different scheme would make the
// debiasing meaningless), is abandoned with a logged warning and collection
// starts fresh.
func New(cfg Config) (*Server, error) {
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("rrserver: config needs a disguise scheme")
	}
	if cfg.Z == 0 {
		cfg.Z = DefaultZ
	}
	if !(cfg.Z > 0) {
		return nil, fmt.Errorf("rrserver: z must be positive, got %v", cfg.Z)
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 30 * time.Second
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	env, err := rr.MarshalScheme(cfg.Scheme)
	if err != nil {
		return nil, fmt.Errorf("rrserver: encoding deployed scheme: %w", err)
	}
	version, err := rr.SchemeVersion(cfg.Scheme)
	if err != nil {
		return nil, fmt.Errorf("rrserver: fingerprinting deployed scheme: %w", err)
	}
	s := &Server{
		cfg:       cfg,
		schemeEnv: env,
		version:   version,
		maxBody:   int64(cfg.MaxBatch)*bytesPerReport + bodyOverhead,
		rec:       obs.OrNop(cfg.Recorder),
		logf:      cfg.Logf,
		ingestLat: cfg.Registry.Histogram("rrserver.ingest_ns",
			obs.LogBuckets(1000, 4, 12)), // 1µs .. ~4s
		httpErrs:     cfg.Registry.Counter("rrserver.http_errors"),
		snapshots:    cfg.Registry.Counter("rrserver.snapshots"),
		snapshotErrs: cfg.Registry.Counter("rrserver.snapshot_errors"),
		snapshotSize: cfg.Registry.Gauge("rrserver.snapshot_bytes"),
	}
	if s.logf == nil {
		s.logf = log.Printf
	}
	if cfg.SnapshotPath != "" {
		s.col = s.recover(cfg.SnapshotPath)
	}
	if s.col == nil {
		s.col = collector.NewSharded(cfg.Scheme, cfg.Shards)
	}
	s.col.Instrument(cfg.Recorder, cfg.Registry)
	return s, nil
}

// recover tries to restore the collector from path, returning nil (start
// fresh) on any rejection. Only a clean "file does not exist" is silent;
// everything else is a warning an operator should see.
func (s *Server) recover(path string) *collector.ShardedCollector {
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			s.logf("rrserver: reading snapshot %s: %v; starting fresh", path, err)
		}
		return nil
	}
	col, err := collector.RestoreSharded(data, s.cfg.Shards)
	if err != nil {
		s.logf("rrserver: snapshot %s rejected (%v); starting fresh", path, err)
		return nil
	}
	// Rebuild on the deployed scheme and fold the snapshot's counts in via
	// Merge, which compares the scheme fingerprints: a snapshot collected
	// under a different matrix or hash family is rejected here — its
	// reports were encoded with other probabilities and would bias every
	// estimate.
	fresh := collector.NewSharded(s.cfg.Scheme, s.cfg.Shards)
	if err := fresh.Merge(col); err != nil {
		s.logf("rrserver: snapshot %s was collected under a different scheme (%v); starting fresh", path, err)
		return nil
	}
	s.restored = true
	s.logf("rrserver: restored %d reports from %s", fresh.Count(), path)
	return fresh
}

// Restored reports whether construction recovered state from a snapshot.
func (s *Server) Restored() bool { return s.restored }

// Collector exposes the underlying collector (e.g. for tests and the
// in-process load driver).
func (s *Server) Collector() *collector.ShardedCollector { return s.col }

// Scheme returns the deployed disguise scheme.
func (s *Server) Scheme() rr.Scheme { return s.cfg.Scheme }

// SchemeVersion returns the deployed scheme's wire fingerprint — the value
// GET /v1/scheme serves as its ETag.
func (s *Server) SchemeVersion() string { return s.version }

// Count returns the number of reports ingested so far.
func (s *Server) Count() int { return s.col.Count() }

// Categories returns the original-domain size of the deployed scheme.
func (s *Server) Categories() int { return s.cfg.Scheme.Domain() }

// Z returns the configured confidence quantile.
func (s *Server) Z() float64 { return s.cfg.Z }

// Register mounts the /v1 API on mux. Pass it to obs.ServeMux so the API
// shares the debug server's listener, graceful shutdown, /healthz and
// /metrics.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/report", s.handleReport)
	mux.HandleFunc("POST /v1/reports", s.handleBatch)
	mux.HandleFunc("GET /v1/estimate", s.handleEstimate)
	mux.HandleFunc("GET /v1/scheme", s.handleScheme)
	mux.HandleFunc("GET /v1/heavyhitters", s.handleHeavyHitters)
}

// Run drives periodic snapshot persistence until ctx is done, then writes
// one final snapshot so a graceful shutdown loses nothing. With persistence
// disabled it just blocks until ctx is done. The returned error is the final
// snapshot's (nil on a clean drain). Cancel ctx only after the HTTP server
// has drained, so the final snapshot includes every in-flight ingest.
func (s *Server) Run(ctx context.Context) error {
	if s.cfg.SnapshotPath == "" {
		<-ctx.Done()
		return nil
	}
	t := time.NewTicker(s.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return s.SnapshotNow()
		case <-t.C:
			if err := s.SnapshotNow(); err != nil {
				s.logf("rrserver: periodic snapshot: %v", err)
			}
		}
	}
}

// SnapshotNow persists the collection state to cfg.SnapshotPath, atomically
// (write temp file, rename into place) so a crash mid-write never corrupts
// the previous good snapshot.
func (s *Server) SnapshotNow() error {
	if s.cfg.SnapshotPath == "" {
		return nil
	}
	start := time.Now()
	data, err := json.Marshal(s.col)
	if err != nil {
		s.snapshotErrs.Inc()
		return fmt.Errorf("rrserver: marshaling snapshot: %w", err)
	}
	dir := filepath.Dir(s.cfg.SnapshotPath)
	tmp, err := os.CreateTemp(dir, ".rrserver-snapshot-*")
	if err != nil {
		s.snapshotErrs.Inc()
		return fmt.Errorf("rrserver: snapshot temp file: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		s.snapshotErrs.Inc()
		return fmt.Errorf("rrserver: writing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		s.snapshotErrs.Inc()
		return fmt.Errorf("rrserver: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.cfg.SnapshotPath); err != nil {
		os.Remove(tmp.Name())
		s.snapshotErrs.Inc()
		return fmt.Errorf("rrserver: installing snapshot: %w", err)
	}
	s.snapshots.Inc()
	s.snapshotSize.Set(float64(len(data)))
	if s.rec.Enabled() {
		s.rec.Record("rrserver.snapshot", obs.Fields{
			"reports": s.col.Count(),
			"bytes":   len(data),
			"ms":      float64(time.Since(start).Microseconds()) / 1e3,
		})
	}
	return nil
}

// decodeBody decodes a JSON request body of at most s.maxBody bytes into v,
// answering 413 for a larger body and 400 for a malformed one.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		s.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds the %d-byte limit", tooLarge.Limit))
	default:
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("decoding body: %v", err))
	}
	return false
}

// handleReport ingests one encoded report.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req rrapi.ReportRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if err := s.col.Ingest(req.Report); err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	s.ingestLat.Observe(float64(time.Since(start).Nanoseconds()))
	s.writeJSON(w, http.StatusOK, rrapi.IngestResponse{Accepted: 1})
}

// handleBatch ingests a batch of encoded reports atomically.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req rrapi.BatchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Reports) > s.cfg.MaxBatch {
		s.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d exceeds the %d-report limit", len(req.Reports), s.cfg.MaxBatch))
		return
	}
	if len(req.Reports) > 0 {
		if err := s.col.IngestBatch(req.Reports); err != nil {
			s.writeError(w, statusFor(err), err)
			return
		}
	}
	s.ingestLat.Observe(float64(time.Since(start).Nanoseconds()))
	s.writeJSON(w, http.StatusOK, rrapi.IngestResponse{Accepted: len(req.Reports)})
}

// handleEstimate serves the current reconstruction with confidence
// half-widths; ?z= overrides the quantile. A dense scheme returns the full
// domain and supports ?margin= (projected report count needed to shrink the
// worst half-width to the target); any scheme the collector has no Snapshot
// for answers ?categories= point queries only — a full-domain response over
// a million-category sketch would be exactly the dense payload the sketch
// exists to avoid.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	z := s.cfg.Z
	if raw := r.URL.Query().Get("z"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad z %q: %v", raw, err))
			return
		}
		z = v
	}
	sum, err := s.col.Snapshot(z)
	if errors.Is(err, collector.ErrUnsupported) {
		s.handlePointEstimate(w, r, z)
		return
	}
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	resp := rrapi.EstimateResponse{
		Reports:   sum.Reports,
		Disguised: sum.Disguised,
		Estimate:  sum.Estimate,
		HalfWidth: sum.HalfWidth,
		Z:         sum.Z,
	}
	for _, h := range sum.HalfWidth {
		if h > resp.Margin {
			resp.Margin = h
		}
	}
	if raw := r.URL.Query().Get("margin"); raw != "" {
		target, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad margin %q: %v", raw, err))
			return
		}
		need, err := s.col.ReportsForMargin(target, z)
		if err != nil {
			s.writeError(w, statusFor(err), err)
			return
		}
		resp.ReportsForMargin = need
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handlePointEstimate answers point queries: debiased frequency estimates
// for the requested categories, with distribution-free half-widths when the
// scheme can provide them (boundedEstimator, at the worst-case ℓ² mass of
// 1).
func (s *Server) handlePointEstimate(w http.ResponseWriter, r *http.Request, z float64) {
	if r.URL.Query().Get("margin") != "" {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("margin projection is not supported for sketch schemes"))
		return
	}
	rawCats := r.URL.Query().Get("categories")
	if rawCats == "" {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("sketch estimates are point queries: pass ?categories=i,j,... or use /v1/heavyhitters"))
		return
	}
	cats, err := parseCategories(rawCats, s.cfg.Scheme.Domain())
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	counts := s.col.Counts()
	total := 0
	for _, v := range counts {
		total += v
	}
	if total == 0 {
		s.writeError(w, statusFor(collector.ErrNoReports), collector.ErrNoReports)
		return
	}
	resp := rrapi.EstimateResponse{Reports: total, Categories: cats, Z: z}
	if be, ok := s.cfg.Scheme.(boundedEstimator); ok {
		ests, bounds, err := be.EstimateWithBound(counts, cats, z, 1)
		if err != nil {
			s.writeError(w, statusFor(err), err)
			return
		}
		resp.Estimate, resp.HalfWidth = ests, bounds
		for _, h := range bounds {
			if h > resp.Margin {
				resp.Margin = h
			}
		}
	} else {
		ests, err := s.cfg.Scheme.EstimateFrom(counts, cats)
		if err != nil {
			s.writeError(w, statusFor(err), err)
			return
		}
		resp.Estimate = ests
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// parseCategories decodes a comma-separated ?categories= list and bounds it
// against the scheme domain.
func parseCategories(raw string, domain int) ([]int, error) {
	parts := strings.Split(raw, ",")
	cats := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad category %q: %v", p, err)
		}
		if v < 0 || v >= domain {
			return nil, fmt.Errorf("category %d outside the %d-category domain", v, domain)
		}
		cats = append(cats, v)
	}
	if len(cats) == 0 {
		return nil, fmt.Errorf("empty ?categories= list")
	}
	return cats, nil
}

// handleHeavyHitters scans the original domain for categories whose debiased
// frequency estimate clears ?threshold=, sorted by estimate descending;
// ?limit= caps the result. Over a sketch it is the paper-motivating query
// (frequent categories without a dense reconstruction); over a dense matrix
// it filters the clipped full-domain estimate.
func (s *Server) handleHeavyHitters(w http.ResponseWriter, r *http.Request) {
	rawThr := r.URL.Query().Get("threshold")
	if rawThr == "" {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("missing required ?threshold="))
		return
	}
	threshold, err := strconv.ParseFloat(rawThr, 64)
	if err != nil || !(threshold >= 0) {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad threshold %q", rawThr))
		return
	}
	limit := 0
	if raw := r.URL.Query().Get("limit"); raw != "" {
		limit, err = strconv.Atoi(raw)
		if err != nil || limit < 0 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", raw))
			return
		}
	}
	hits, err := s.col.HeavyHitters(threshold, limit)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	resp := rrapi.HeavyHittersResponse{
		Reports:   s.col.Count(),
		Threshold: threshold,
		Hits:      make([]rrapi.HeavyHitter, len(hits)),
	}
	for i, h := range hits {
		resp.Hits[i] = rrapi.HeavyHitter{Category: h.Category, Estimate: h.Estimate}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleScheme serves the deployed disguise scheme so clients can sample
// locally and never upload a true value. The scheme version is the ETag:
// clients polling for redeployment send If-None-Match and get a bodyless
// 304 until the scheme actually changes. Dense deployments also fill the
// legacy Matrix field for old clients.
func (s *Server) handleScheme(w http.ResponseWriter, r *http.Request) {
	etag := `"` + s.version + `"`
	w.Header().Set("ETag", etag)
	if match := r.Header.Get("If-None-Match"); match != "" && strings.Contains(match, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	legacy, _ := s.cfg.Scheme.(*rr.Matrix)
	s.writeJSON(w, http.StatusOK, rrapi.SchemeResponse{
		Kind:    s.cfg.Scheme.Kind(),
		Scheme:  s.schemeEnv,
		Version: s.version,
		Matrix:  legacy,
		Z:       s.cfg.Z,
	})
}

// statusFor maps collector errors onto HTTP statuses: client mistakes are
// 4xx, a not-yet-answerable estimate is 409, an undefined estimator is 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, collector.ErrBadReport), errors.Is(err, collector.ErrBadMargin):
		return http.StatusBadRequest
	case errors.Is(err, collector.ErrNoReports), errors.Is(err, rr.ErrEmptyData):
		return http.StatusConflict
	case errors.Is(err, rr.ErrSingular):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing to do
}

func (s *Server) writeError(w http.ResponseWriter, code int, err error) {
	s.httpErrs.Inc()
	s.writeJSON(w, code, rrapi.ErrorResponse{Error: err.Error()})
}
