package intmat

import (
	"sync"
	"testing"
)

func TestKeyCanonical(t *testing.T) {
	a := New(2, 2, 1, 2, 3, 4)
	b := New(2, 2, 1, 2, 3, 4)
	if a.Key() != b.Key() {
		t.Errorf("equal matrices, different keys: %q vs %q", a.Key(), b.Key())
	}
	if a.Key() != "2x2:1,2,3,4" {
		t.Errorf("key format: %q", a.Key())
	}
	// same entries, different shape must not collide
	if New(1, 4, 1, 2, 3, 4).Key() == a.Key() {
		t.Error("1x4 and 2x2 with the same entries share a key")
	}
	if New(2, 2, 1, 2, 3, 5).Key() == a.Key() {
		t.Error("different entries share a key")
	}
}

// mapCache is a minimal KernelCache for testing the Kernels memo.
type mapCache struct {
	mu   sync.Mutex
	m    map[string]any
	hits int
}

func (c *mapCache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	if ok {
		c.hits++
	}
	return v, ok
}

func (c *mapCache) Put(key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = v
}

// TestKernelCacheMemoizes: through a handle with a cache, HermiteLeft,
// InverseUnimodular and KernelBasis return identical results on hits,
// mutating a returned matrix cannot corrupt the cached value, and the
// handle counts only the kernels it computed.
func TestKernelCacheMemoizes(t *testing.T) {
	c := &mapCache{m: map[string]any{}}
	k := &Kernels{Cache: c}

	m := New(3, 2, 12, 4, 6, 8, 10, 14)
	q1, h1 := k.HermiteLeft(m)
	q2, h2 := k.HermiteLeft(m)
	if !q1.Equal(q2) || !h1.Equal(h2) {
		t.Fatal("cached HermiteLeft differs from computed")
	}
	if c.hits == 0 {
		t.Fatal("second HermiteLeft call missed the cache")
	}
	// poison the returned copies; the cache must be unaffected
	q2.Set(0, 0, 999)
	h2.Set(0, 0, 999)
	q3, h3 := k.HermiteLeft(m)
	if !q3.Equal(q1) || !h3.Equal(h1) {
		t.Fatal("mutating a returned matrix corrupted the cache")
	}

	u := New(2, 2, 1, 1, 0, 1)
	inv1 := k.InverseUnimodular(u)
	inv2 := k.InverseUnimodular(u)
	if !inv1.Equal(inv2) {
		t.Fatal("cached InverseUnimodular differs")
	}

	km := New(2, 3, 1, 0, 0, 0, 1, 0)
	ker1 := k.KernelBasis(km)
	ker2 := k.KernelBasis(km)
	if !ker1.Equal(ker2) {
		t.Fatal("cached KernelBasis differs")
	}
	if ker1.Rows() != 3 || ker1.Cols() != 1 {
		t.Fatalf("kernel basis shape %dx%d, want 3x1", ker1.Rows(), ker1.Cols())
	}
	// one computation per distinct (op, matrix); every repeat was a hit
	if k.Ops != 3 || c.hits != 4 || len(c.m) != 3 {
		t.Errorf("handle computed %d kernels with %d hits over %d keys, want 3, 4, 3", k.Ops, c.hits, len(c.m))
	}
	if k.Time <= 0 {
		t.Error("handle recorded no kernel time")
	}
}

// TestKernelCacheDisabled: a handle without a cache computes every
// call and still accounts each one, and the nil handle (the
// package-level functions) computes plainly.
func TestKernelCacheDisabled(t *testing.T) {
	m := New(2, 2, 2, 0, 0, 2)
	k := &Kernels{}
	for i := 0; i < 2; i++ {
		if _, h := k.HermiteLeft(m); h.At(0, 0) != 2 {
			t.Errorf("HermiteLeft without cache: H = %v", h)
		}
	}
	if k.Ops != 2 {
		t.Errorf("cacheless handle counted %d kernels, want 2", k.Ops)
	}
	if _, h := HermiteLeft(m); h.At(0, 0) != 2 {
		t.Errorf("HermiteLeft on the nil handle: H = %v", h)
	}
}
