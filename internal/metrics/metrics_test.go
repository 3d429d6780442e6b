package metrics

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return b.String()
}

func TestCounterExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("requests_total", "Total requests.")
	c.Inc()
	c.Add(2)
	out := scrape(t, r)
	for _, want := range []string{
		"# HELP requests_total Total requests.\n",
		"# TYPE requests_total counter\n",
		"requests_total 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if c.Value() != 3 {
		t.Errorf("Value = %d, want 3", c.Value())
	}
}

func TestCounterVecSortedAndEscaped(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("hits_total", "", "path", "code")
	v.With(`/b"quote`, "200").Inc()
	v.With("/a", "500").Add(2)
	out := scrape(t, r)
	// Children render sorted by label values; quotes are escaped.
	ia := strings.Index(out, `hits_total{path="/a",code="500"} 2`)
	ib := strings.Index(out, `hits_total{path="/b\"quote",code="200"} 1`)
	if ia < 0 || ib < 0 || ia > ib {
		t.Errorf("bad vec rendering (ia=%d ib=%d):\n%s", ia, ib, out)
	}
	// No HELP line when help is empty, but TYPE always present.
	if strings.Contains(out, "# HELP hits_total") {
		t.Errorf("unexpected HELP for empty help:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE hits_total counter") {
		t.Errorf("missing TYPE:\n%s", out)
	}
}

func TestGaugeAndFunc(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("in_flight", "")
	g.Inc()
	g.Inc()
	g.Dec()
	g.Add(0.5)
	val := 7.0
	r.NewGaugeFunc("queue_depth", "", func() float64 { return val })
	r.NewCounterFunc("scenarios_total", "", func() uint64 { return 41 })
	out := scrape(t, r)
	for _, want := range []string{"in_flight 1.5\n", "queue_depth 7\n", "scenarios_total 41\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if g.Value() != 1.5 {
		t.Errorf("gauge Value = %v", g.Value())
	}
}

func TestVecWithFunc(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("cache_hits_total", "", "tier")
	v.WithFunc(func() uint64 { return 5 }, "plan")
	v.With("kernel").Add(9)
	out := scrape(t, r)
	for _, want := range []string{
		`cache_hits_total{tier="plan"} 5`,
		`cache_hits_total{tier="kernel"} 9`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("latency_seconds", "", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 20} {
		h.Observe(v)
	}
	out := scrape(t, r)
	for _, want := range []string{
		"# TYPE latency_seconds histogram\n",
		`latency_seconds_bucket{le="0.1"} 2` + "\n", // 0.05 and the exact bound 0.1
		`latency_seconds_bucket{le="1"} 3` + "\n",
		`latency_seconds_bucket{le="10"} 3` + "\n",
		`latency_seconds_bucket{le="+Inf"} 4` + "\n",
		"latency_seconds_sum 20.65\n",
		"latency_seconds_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramVecLabels(t *testing.T) {
	r := NewRegistry()
	hv := r.NewHistogramVec("dur_seconds", "", []float64{1}, "endpoint")
	hv.With("/v1/optimize").Observe(0.5)
	out := scrape(t, r)
	for _, want := range []string{
		`dur_seconds_bucket{endpoint="/v1/optimize",le="1"} 1`,
		`dur_seconds_bucket{endpoint="/v1/optimize",le="+Inf"} 1`,
		`dur_seconds_sum{endpoint="/v1/optimize"} 0.5`,
		`dur_seconds_count{endpoint="/v1/optimize"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFamiliesSortedByName(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("zz_total", "")
	r.NewCounter("aa_total", "")
	out := scrape(t, r)
	if strings.Index(out, "aa_total") > strings.Index(out, "zz_total") {
		t.Errorf("families not sorted:\n%s", out)
	}
}

func TestEmptyVecSkipped(t *testing.T) {
	r := NewRegistry()
	r.NewCounterVec("unused_total", "never used", "x")
	if out := scrape(t, r); strings.Contains(out, "unused_total") {
		t.Errorf("empty family rendered:\n%s", out)
	}
}

func TestOnCollectHook(t *testing.T) {
	r := NewRegistry()
	g := r.NewGaugeVec("jobs", "", "state")
	n := 0
	r.OnCollect(func() {
		n++
		g.With("queued").Set(float64(n))
	})
	out := scrape(t, r)
	if !strings.Contains(out, `jobs{state="queued"} 1`) {
		t.Errorf("hook value missing:\n%s", out)
	}
	out = scrape(t, r)
	if !strings.Contains(out, `jobs{state="queued"} 2`) {
		t.Errorf("hook not re-run:\n%s", out)
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.NewCounter("dup_total", "")
	mustPanic("duplicate", func() { r.NewCounter("dup_total", "") })
	mustPanic("bad name", func() { r.NewCounter("1bad", "") })
	mustPanic("bad label", func() { r.NewCounterVec("v_total", "", "le") })
	mustPanic("label arity", func() { r.NewCounterVec("w_total", "", "a").With("x", "y") })
	mustPanic("bad buckets", func() { r.NewHistogram("h", "", []float64{2, 1}) })
}

func TestTrailingInfBucketStripped(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h_seconds", "", []float64{1, math.Inf(+1)})
	h.Observe(0.5)
	out := scrape(t, r)
	if strings.Count(out, `le="+Inf"`) != 1 {
		t.Errorf("want exactly one +Inf bucket:\n%s", out)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x_total", "").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get("Content-Type"); got != ContentType {
		t.Errorf("Content-Type = %q", got)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Errorf("body:\n%s", rec.Body.String())
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("n_total", "")
	v := r.NewCounterVec("l_total", "", "k")
	h := r.NewHistogram("d_seconds", "", nil)
	g := r.NewGauge("g", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				v.With("a").Inc()
				v.With("b").Inc()
				h.Observe(float64(i) / 1000)
				g.Add(1)
			}
		}(w)
	}
	// Scrape concurrently with the writers.
	for i := 0; i < 10; i++ {
		scrape(t, r)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	out := scrape(t, r)
	for _, want := range []string{`l_total{k="a"} 8000`, `l_total{k="b"} 8000`, "d_seconds_count 8000", "g 8000"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

// TestExemplars: ObserveWithExemplar attaches the exemplar to the
// bucket the value lands in, visible only under OpenMetrics with the
// trace ID in lowercase hex; the default text exposition is
// byte-identical to plain observations.
func TestExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_seconds", "Latency.", []float64{0.1, 1})
	h.ObserveWithExemplar(0.05, [16]byte{0xab, 0xc1, 0x23, 15: 0x01})
	h.ObserveWithExemplar(0.5, [16]byte{0xde, 0xf4, 0x56, 15: 0xff})
	h.ObserveWithExemplar(5, [16]byte{}) // no trace: plain observation

	text := scrape(t, r)
	if strings.Contains(text, "abc123") {
		t.Errorf("text exposition leaked an exemplar:\n%s", text)
	}

	var b strings.Builder
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	om := b.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 1 # {trace_id="abc12300000000000000000000000001"} 0.05` + "\n",
		`lat_seconds_bucket{le="1"} 2 # {trace_id="def456000000000000000000000000ff"} 0.5` + "\n",
		"lat_seconds_count 3\n",
		"# EOF\n",
	} {
		if !strings.Contains(om, want) {
			t.Errorf("OpenMetrics missing %q in:\n%s", want, om)
		}
	}
	if strings.Contains(om, `le="+Inf"} 3 #`) {
		t.Errorf("+Inf bucket gained an exemplar from unlabeled observe:\n%s", om)
	}
}

// TestOpenMetricsCounterNaming: the counter family metadata drops the
// _total suffix its samples keep, and negotiation picks the format.
func TestOpenMetricsNegotiation(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("reqs_total", "Reqs.").Inc()

	var b strings.Builder
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	om := b.String()
	for _, want := range []string{"# TYPE reqs counter\n", "reqs_total 1\n"} {
		if !strings.Contains(om, want) {
			t.Errorf("missing %q in:\n%s", want, om)
		}
	}

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	req, _ := http.NewRequest("GET", srv.URL, nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeOpenMetrics {
		t.Errorf("negotiated Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.HasSuffix(string(body), "# EOF\n") {
		t.Errorf("OpenMetrics body lacks # EOF terminator:\n%s", body)
	}

	plain, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Body.Close()
	if ct := plain.Header.Get("Content-Type"); ct != ContentType {
		t.Errorf("default Content-Type = %q", ct)
	}
}
