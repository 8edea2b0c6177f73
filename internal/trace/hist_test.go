package trace

import (
	"encoding/json"
	"math"
	"testing"
)

func TestHistBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{math.MinInt64, 0}, {-1, 0}, {0, 0},
		{1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11},
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
		lo, hi := BucketBounds(c.bucket)
		if c.v < lo || c.v >= hi {
			// Bucket 63's hi is clamped to MaxInt64, which the max sample
			// equals rather than undershoots.
			if !(c.bucket == 63 && c.v == math.MaxInt64) {
				t.Errorf("value %d outside its bucket %d bounds [%d, %d)", c.v, c.bucket, lo, hi)
			}
		}
	}
	// Bounds tile the positive axis with no gaps.
	for i := 1; i < 63; i++ {
		_, hi := BucketBounds(i)
		lo, _ := BucketBounds(i + 1)
		if hi != lo {
			t.Errorf("bucket %d hi %d != bucket %d lo %d", i, hi, i+1, lo)
		}
	}
}

func TestHistEmpty(t *testing.T) {
	var h Hist
	if h.Count != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Errorf("empty hist not neutral: %+v mean=%v p50=%v", h, h.Mean(), h.Quantile(0.5))
	}
	b, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	var back Hist
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Errorf("empty hist round-trip mismatch: %+v", back)
	}
}

func TestHistOneSample(t *testing.T) {
	var h Hist
	h.Observe(42)
	if h.Count != 1 || h.Sum != 42 || h.MinV != 42 || h.MaxV != 42 {
		t.Fatalf("one-sample summary wrong: %+v", h)
	}
	if h.Mean() != 42 {
		t.Errorf("mean = %v, want 42", h.Mean())
	}
	// 42 lives in [32, 64); the quantile upper bound is clamped to max.
	if q := h.Quantile(0.5); q != 42 {
		t.Errorf("p50 = %d, want 42 (clamped to max)", q)
	}
	if h.Buckets[6] != 1 {
		t.Errorf("sample not in bucket 6: %v", h.Buckets)
	}
}

func TestHistObserveAndQuantile(t *testing.T) {
	var h Hist
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count != 1000 || h.Sum != 500500 {
		t.Fatalf("summary wrong: count=%d sum=%d", h.Count, h.Sum)
	}
	// p50 of 1..1000 is 500, whose bucket is [512, 1024) upper-bounded at
	// 512; the estimate must bracket the true value within one bucket.
	if q := h.Quantile(0.5); q < 500 || q > 1024 {
		t.Errorf("p50 = %d, want within (500, 1024]", q)
	}
	if q := h.Quantile(1); q != 1000 {
		t.Errorf("p100 = %d, want 1000 (observed max)", q)
	}
	if q := h.Quantile(0); q < 1 || q > 2 {
		t.Errorf("p0 = %d, want first bucket bound", q)
	}
}

// TestHistObserveN pins ObserveN(v, n) to n calls of Observe(v): on an
// empty and a non-empty histogram, for zero, negative and positive
// values, and for n = 0 (no change at all).
func TestHistObserveN(t *testing.T) {
	starts := map[string][]int64{
		"empty":     nil,
		"non-empty": {5, -3, 40, 1},
	}
	for name, seed := range starts {
		for _, v := range []int64{0, -7, 1, 3, 1000, math.MinInt64 / 4} {
			for _, n := range []int64{0, 1, 2, 17} {
				var bulk, each Hist
				for _, s := range seed {
					bulk.Observe(s)
					each.Observe(s)
				}
				bulk.ObserveN(v, n)
				for i := int64(0); i < n; i++ {
					each.Observe(v)
				}
				if bulk != each {
					t.Errorf("%s: ObserveN(%d, %d) = %+v, want %+v", name, v, n, bulk, each)
				}
			}
		}
	}
}

func TestHistMerge(t *testing.T) {
	var a, b Hist
	for v := int64(0); v < 100; v++ {
		a.Observe(v)
	}
	for v := int64(100); v < 200; v++ {
		b.Observe(v)
	}
	merged := a
	merged.Merge(&b)
	var want Hist
	for v := int64(0); v < 200; v++ {
		want.Observe(v)
	}
	if merged != want {
		t.Errorf("merge mismatch:\n got %+v\nwant %+v", merged, want)
	}
	// Merging into an empty hist copies it.
	var empty Hist
	empty.Merge(&a)
	if empty != a {
		t.Errorf("merge into empty mismatch")
	}
	// Merging an empty hist is a no-op.
	before := a
	var e2 Hist
	a.Merge(&e2)
	if a != before {
		t.Errorf("merge of empty not a no-op")
	}
}

func TestHistJSONRoundTrip(t *testing.T) {
	var h Hist
	for _, v := range []int64{0, 1, 1, 5, 300, 70000, -3} {
		h.Observe(v)
	}
	b, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	var back Hist
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, h)
	}
}
