package em

// Pool bounds how many background worker goroutines NEXSORT's subtree
// dispatch (internal/core) may run at once. It is a plain counting
// semaphore: a worker is admitted only when TryAcquire succeeds, and
// admission never blocks — a caller that fails to acquire a slot simply
// does the work inline on the calling goroutine. That non-blocking
// discipline is what keeps parallel execution deterministic: the decision
// "sort this subtree now" is made at exactly the same point in the input
// scan regardless of how busy the pool is; only *where* the sort executes
// changes.
//
// A nil *Pool is valid and admits nothing, so hand-assembled Envs (tests
// that build the struct directly instead of calling NewEnv) degrade to
// fully sequential execution.
type Pool struct {
	sem chan struct{}
}

// NewPool returns a pool admitting up to workers concurrent background
// tasks. workers <= 0 returns a pool that never admits (every TryAcquire
// reports false), which callers treat as "run inline".
func NewPool(workers int) *Pool {
	if workers <= 0 {
		return &Pool{}
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// TryAcquire claims a worker slot without blocking. It reports false when
// the pool is full (or nil/empty), in which case the caller must run the
// task inline and must not call Release.
func (p *Pool) TryAcquire() bool {
	if p == nil || p.sem == nil {
		return false
	}
	select {
	case p.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot claimed by a successful TryAcquire.
func (p *Pool) Release() {
	if p != nil && p.sem != nil {
		<-p.sem
	}
}
