package telemetry

// ring is the bounded buffer behind both tracers: it keeps the newest cap
// items and counts every item ever pushed. It grows by append up to cap,
// so a lightly used tracer (a fleet tenant's, say) holds only what it has
// recorded. Item k (0-based, in push order) lives at buf[k % cap]. The
// owner serializes access.
type ring[T any] struct {
	buf   []T
	cap   int
	total uint64
}

func (r *ring[T]) push(v T) {
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.total%uint64(r.cap)] = v
	}
	r.total++
}

// tail returns a copy of the newest n items, oldest first (every retained
// item when n <= 0 or n exceeds what is retained).
func (r *ring[T]) tail(n int) []T {
	if n <= 0 || n > len(r.buf) {
		n = len(r.buf)
	}
	out := make([]T, 0, n)
	if n == 0 {
		return out
	}
	i := int((r.total - uint64(n)) % uint64(len(r.buf)))
	first := r.buf[i:min(i+n, len(r.buf))]
	out = append(out, first...)
	return append(out, r.buf[:n-len(first)]...)
}

// since returns the retained items pushed after the first seq, oldest
// first, and how many of those have already rotated out.
func (r *ring[T]) since(seq uint64) (items []T, dropped uint64) {
	if seq >= r.total {
		return nil, 0
	}
	n := r.total - seq
	if held := uint64(len(r.buf)); n > held {
		return r.tail(0), n - held
	}
	return r.tail(int(n)), 0
}
