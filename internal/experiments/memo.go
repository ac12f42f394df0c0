package experiments

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// memo computes each key's value once: the first caller of a key runs the
// computation, concurrent callers of the same key wait for it, and later
// callers reuse its value and error. The zero memo is ready to use.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

// get returns key's value, computing it with fn on first use. A panic in
// fn becomes the entry's error, stack included, so every caller of that
// key fails rather than reading a zero value as a result.
func (m *memo[K, V]) get(key K, fn func() (V, error)) (V, error) {
	m.mu.Lock()
	if m.m == nil {
		m.m = make(map[K]*memoEntry[V])
	}
	e, ok := m.m[key]
	if !ok {
		e = &memoEntry[V]{}
		m.m[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				e.err = fmt.Errorf("experiments: computing %+v panicked: %v\n%s", key, r, debug.Stack())
			}
		}()
		e.val, e.err = fn()
	})
	return e.val, e.err
}
