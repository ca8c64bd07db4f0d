package conc

import "sync"

// FreeList is a bounded stack of values kept for reuse across goroutines:
// the storage one job leaves behind for the next. Unlike a sync.Pool it is
// not emptied by garbage collections, which a fleet sweep runs dozens of
// per pass — a pool would hand back little of what the last job left. The
// zero value keeps nothing; set Max.
type FreeList[T any] struct {
	Max int // the most values kept; Put drops the rest

	mu   sync.Mutex
	list []T
}

// Get pops the value put last, if any.
func (l *FreeList[T]) Get() (v T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.list)
	if n == 0 {
		return v, false
	}
	v = l.list[n-1]
	var zero T
	l.list[n-1] = zero
	l.list = l.list[:n-1]
	return v, true
}

// GetN pops up to n values onto dst and returns it.
func (l *FreeList[T]) GetN(dst []T, n int) []T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n = min(n, len(l.list))
	tail := l.list[len(l.list)-n:]
	dst = append(dst, tail...)
	clear(tail)
	l.list = l.list[:len(l.list)-n]
	return dst
}

// Put keeps v unless the list is full.
func (l *FreeList[T]) Put(v T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.list) < l.Max {
		l.list = append(l.list, v)
	}
}
