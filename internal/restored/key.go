package restored

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"time"

	"sgr/internal/dkseries"
	"sgr/internal/oracle"
	"sgr/internal/sampling"
)

// Method names accepted on the wire.
const (
	MethodProposed = "proposed"
	MethodGjoka    = "gjoka"
)

// jobSpec is the resolved, validated form of a JobSpec: crawl parsed and
// canonicalized (except for graphd sources, which crawl inside the worker),
// options normalized, and the content-addressed job key computed.
type jobSpec struct {
	method string // MethodProposed or MethodGjoka
	rc     float64
	skip   bool
	forbid bool
	seed   uint64

	// timeout is the job's wall-clock deadline (0 = none). Execution
	// policy, not identity: it is deliberately excluded from writeOptions
	// and therefore from the key — how long a caller is willing to wait
	// must not re-key the work (TestTimingFieldsOutsideContentAddress
	// pins this).
	timeout time.Duration

	crawl  *sampling.Crawl // nil for graphd sources until the worker crawls
	canon  []byte          // canonical crawl bytes (nil for graphd sources)
	graphd *GraphdSource

	key string // job id: hex SHA-256 of the canonical submission
}

// resolveSpec validates a submission and computes its identity. All crawl
// parsing happens here, synchronously at submit time, so POST can reject
// malformed submissions with a 400 instead of a failed job, and identical
// submissions collapse onto one job id before anything is enqueued.
func resolveSpec(spec *JobSpec) (*jobSpec, error) {
	if spec.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms must be >= 0, got %d", spec.TimeoutMS)
	}
	if err := dkseries.CheckRC(spec.RC); err != nil {
		return nil, err
	}
	ps := &jobSpec{
		rc:      spec.RC,
		skip:    spec.SkipRewiring,
		forbid:  spec.ForbidDegenerate,
		seed:    spec.Seed,
		timeout: time.Duration(spec.TimeoutMS) * time.Millisecond,
	}
	// Normalize the options that core resolves internally, so every
	// spelling of a default hashes the same.
	if ps.rc == 0 {
		ps.rc = dkseries.DefaultRC
	}
	switch spec.Method {
	case "", MethodProposed:
		ps.method = MethodProposed
	case MethodGjoka:
		ps.method = MethodGjoka
	default:
		return nil, fmt.Errorf("unknown method %q (want %q or %q)", spec.Method, MethodProposed, MethodGjoka)
	}

	sources := 0
	for _, set := range []bool{len(spec.Crawl) > 0, spec.Journal != "", spec.Graphd != nil} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("exactly one of crawl, journal or graphd is required (got %d)", sources)
	}

	switch {
	case len(spec.Crawl) > 0:
		c, err := sampling.ReadCrawlJSON(bytes.NewReader(spec.Crawl))
		if err != nil {
			return nil, err
		}
		if err := ps.setCrawl(c); err != nil {
			return nil, err
		}
	case spec.Journal != "":
		c, err := oracle.ParseCrawlJournal([]byte(spec.Journal))
		if err != nil {
			return nil, err
		}
		if err := ps.setCrawl(c); err != nil {
			return nil, err
		}
	default:
		g := *spec.Graphd // private copy: the spec is caller-owned
		if g.URL == "" {
			return nil, fmt.Errorf("graphd.url is required")
		}
		if g.Fraction <= 0 || g.Fraction > 1 {
			return nil, fmt.Errorf("graphd.fraction %v out of (0,1]", g.Fraction)
		}
		seedNode := -1
		if g.SeedNode != nil {
			seedNode = *g.SeedNode
		}
		ps.graphd = &g
		// Graphd jobs are keyed by the crawl *request* (the crawl itself
		// has not happened yet): two submissions naming the same server,
		// fraction, start and seed are one job. After the worker crawls,
		// the result is ALSO stored under the crawl-content key, so a later
		// inline submission of the identical crawl hits the cache without
		// a pipeline run (and vice versa).
		h := newKeyHash()
		fmt.Fprintf(h, "source=graphd\nurl=%s\nfraction=%v\nseed_node=%d\n", g.URL, g.Fraction, seedNode)
		ps.writeOptions(h)
		ps.key = hex.EncodeToString(h.Sum(nil))
	}
	return ps, nil
}

// setCrawl installs a resolved crawl, canonicalizes it, and derives the
// content-addressed key. The restoration pipeline needs the walk sequence;
// rejecting walkless crawls here keeps failed jobs out of the queue.
func (ps *jobSpec) setCrawl(c *sampling.Crawl) error {
	if len(c.Walk) == 0 {
		return fmt.Errorf("crawl has no walk sequence (restoration needs a random-walk crawl)")
	}
	canon, err := canonicalCrawl(c)
	if err != nil {
		return err
	}
	ps.crawl = c
	ps.canon = canon
	ps.key = resultKey(canon, ps)
	return nil
}

// canonicalCrawl renders a crawl in its canonical byte form: the exact
// output of sampling's WriteJSON. Any JSON spelling of the same crawl —
// whitespace, field order, number formatting that survives parsing —
// canonicalizes to the same bytes; any difference in queried nodes,
// neighbor lists or walk steps changes them.
func canonicalCrawl(c *sampling.Crawl) ([]byte, error) {
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// keyVersion stamps the hash domain. Bump it when the canonical form or
// the option set changes, so stale disk caches can never alias new keys.
const keyVersion = "sgr-restored-key-v1"

func newKeyHash() hash.Hash {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", keyVersion)
	return h
}

// writeOptions appends the normalized pipeline options to the key.
func (ps *jobSpec) writeOptions(h hash.Hash) {
	fmt.Fprintf(h, "method=%s\nrc=%g\nskip_rewiring=%t\nforbid_degenerate=%t\nseed=%d\n",
		ps.method, ps.rc, ps.skip, ps.forbid, ps.seed)
}

// resultKey is the content-addressed cache key of the ISSUE contract:
// SHA-256 over (canonical crawl bytes, normalized options, seed).
func resultKey(canon []byte, ps *jobSpec) string {
	h := newKeyHash()
	fmt.Fprintf(h, "source=crawl\nbytes=%d\n", len(canon))
	h.Write(canon)
	ps.writeOptions(h)
	return hex.EncodeToString(h.Sum(nil))
}

// walSpec renders the resolved spec back into its normalized wire form
// for the job WAL: canonical crawl bytes, resolved method and rc. Feeding
// the result through resolveSpec reproduces ps.key exactly —
// canonicalization is a fixed point — which is what makes WAL replay
// idempotent and lets it reject corrupt records by key mismatch.
func (ps *jobSpec) walSpec() *JobSpec {
	spec := &JobSpec{
		Seed:             ps.seed,
		Method:           ps.method,
		RC:               ps.rc,
		SkipRewiring:     ps.skip,
		ForbidDegenerate: ps.forbid,
		TimeoutMS:        ps.timeout.Milliseconds(),
	}
	if ps.graphd != nil {
		g := *ps.graphd
		spec.Graphd = &g
	} else {
		spec.Crawl = ps.canon
	}
	return spec
}
