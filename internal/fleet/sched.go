package fleet

// The run queue is two FIFOs owned by the host, both guarded by h.mu:
// fresh holds admitted tenants that have never run, runq holds started
// tenants waiting for their next slice. A dispatch pops the front of
// runq, except on every fourth dispatch host-wide, or whenever runq is
// empty, when it pops the front of fresh. The every-fourth rule bounds
// how long a new admission waits behind the resident backlog without
// letting an admission burst start every queued tenant at once (which
// would hold every one of their VMs live together). A slice runs tens of
// microseconds to milliseconds of guest code, so one lock taken twice
// per slice is nowhere near contended and needs no per-worker queues.

// work is one worker: it runs slices until the host drains or its
// context is canceled.
func (h *Host) work() {
	defer h.wg.Done()
	for t := h.next(); t != nil; t = h.next() {
		h.runSlice(t)
	}
}

// next blocks until a tenant is due a slice and returns it. It returns
// nil once the host has drained or its context is canceled: on cancel
// (Ctrl-C) workers finish the slice they are in and dispatch no more, so
// the host can still write its final metrics and incident artifacts
// instead of executing the whole backlog first.
func (h *Host) next() *Tenant {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.fresh) == 0 && len(h.runq) == 0 {
		if h.done() || h.ctx.Err() != nil {
			return nil
		}
		h.cond.Wait()
	}
	if h.ctx.Err() != nil {
		return nil
	}
	h.dispatches++
	if len(h.runq) == 0 || h.dispatches%4 == 0 && len(h.fresh) > 0 {
		return popFront(&h.fresh)
	}
	return popFront(&h.runq)
}

func popFront(q *[]*Tenant) *Tenant {
	t := (*q)[0]
	(*q)[0] = nil
	*q = (*q)[1:]
	return t
}

// pushFresh queues a new tenant on fresh and wakes one parked worker.
func (h *Host) pushFresh(t *Tenant) {
	h.mu.Lock()
	h.fresh = append(h.fresh, t)
	h.cond.Signal()
	h.mu.Unlock()
}

// requeue puts a started tenant at the back of runq. It wakes no one:
// the worker requeueing t dispatches again at once, so queued work only
// grows through admission, and a worker parks only when both FIFOs are
// empty.
func (h *Host) requeue(t *Tenant) {
	h.mu.Lock()
	h.runq = append(h.runq, t)
	h.mu.Unlock()
}

// wakeAll releases every parked worker, for the edges that end
// dispatch: the drain completing and the context being canceled.
func (h *Host) wakeAll() {
	h.mu.Lock()
	h.cond.Broadcast()
	h.mu.Unlock()
}
