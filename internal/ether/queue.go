package ether

// FrameQueue is a FIFO of frames linked through the frames themselves:
// a frame carries the link to the one behind it, so queueing costs no
// slot, ring or allocation of its own, and the queue is two pointers.
// A frame sits in at most one queue at a time — Push of a frame that
// is already queued panics, as does FramePool.Put of one — and Pop
// clears the link, so a frame leaves the queue as clean as it entered.
// The simulator's links keep their in-flight frames in one, per
// direction. The zero value is an empty queue.
type FrameQueue struct {
	first, last *Frame
}

// Push appends f at the tail.
func (q *FrameQueue) Push(f *Frame) {
	if f.queued {
		panic("ether: FrameQueue.Push of a frame that is already queued")
	}
	f.queued = true
	if q.last == nil {
		q.first = f
	} else {
		q.last.next = f
	}
	q.last = f
}

// Pop removes and returns the frame at the head, or nil if the queue
// is empty.
func (q *FrameQueue) Pop() *Frame {
	f := q.first
	if f == nil {
		return nil
	}
	q.first = f.next
	if q.first == nil {
		q.last = nil
	}
	f.next, f.queued = nil, false
	return f
}
