package sim

// Ring is a growable FIFO over a power-of-two circular buffer. Capacity is
// retained across drain/fill cycles, so steady-state Push/Pop allocates
// nothing — the property the kernel run queue, the Queue and Resource
// buffers, and the SQS simulator's message and visibility queues rely on
// for their zero-allocation hot paths. The zero value is an empty ring.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Len reports the number of buffered elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the tail, growing the buffer if full.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the head element. It panics on an empty ring.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("sim: pop from empty ring")
	}
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // release references held by the slot
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// Peek returns a pointer to the head element without removing it. It
// panics on an empty ring.
func (r *Ring[T]) Peek() *T {
	if r.n == 0 {
		panic("sim: peek on empty ring")
	}
	return &r.buf[r.head]
}

// At returns a pointer to the i-th element from the head (0-based).
func (r *Ring[T]) At(i int) *T {
	if i < 0 || i >= r.n {
		panic("sim: ring index out of range")
	}
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

// grow doubles the buffer (minimum 8), compacting elements to the front.
func (r *Ring[T]) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}
