package sim

import "math/bits"

// radixQueue is the kernel's event queue: a monotone radix queue over the
// canonical (at, seq) order. It is exact only because the kernel never
// schedules before now.
//
// last is the time of the event about to fire (or of the one that fired
// last). Every pending event has at >= last and lives in bucket
// bits.Len64(at ^ last): bucket 0 holds the events at last, bucket k >= 1
// the events whose time first differs from last in bit k-1, so every event
// in a lower bucket is earlier than every event in a higher one. Bucket 0
// pops FIFO. When it empties, the first non-empty bucket is redistributed
// around its minimum time, which becomes last; each of its events moves to
// a strictly lower bucket, and its vacated slots are cleared so fired
// closures can be collected.
//
// The order is exact because every bucket is appended in seq order: a push
// carries a fresh seq, larger than any pending one, and a redistribution
// moves one bucket, in order, into buckets that are all empty. So bucket 0,
// whose events share one instant, pops in seq order.
//
// Storage: bucket slices keep their capacity between bursts, so the queue
// retains about the sum of the buckets' high-water marks. No bucket ever
// holds more than the peak pending count, so that sum is at most 65 times
// the peak, and append at most doubles a slice past its high-water mark,
// so retained capacity stays below 130 times the peak pending count. On
// the dhfr-64 benchmark workload it reaches about 10 times the peak.
type radixQueue struct {
	last Time
	n    int    // pending events
	head int    // FIFO cursor into bucket 0
	mask uint64 // bit k-1 set while bucket k >= 1 is non-empty
	b    [65][]event
}

func (q *radixQueue) push(e event) {
	q.n++
	k := bits.Len64(uint64(e.at ^ q.last))
	if k == 0 && q.head > 0 && len(q.b[0]) == cap(q.b[0]) {
		// Reuse bucket 0's popped prefix before growing it, so a long
		// same-instant chain cannot grow it past its live length.
		m := copy(q.b[0], q.b[0][q.head:])
		clear(q.b[0][m:])
		q.b[0], q.head = q.b[0][:m], 0
	}
	q.b[k] = append(q.b[k], e)
	if k > 0 {
		q.mask |= 1 << (k - 1)
	}
}

// pop removes and returns the earliest event. The queue must be non-empty.
func (q *radixQueue) pop() event {
	q.n--
	if q.head == len(q.b[0]) {
		k := bits.TrailingZeros64(q.mask) + 1
		if b := q.b[k]; len(b) == 1 {
			// A lone event in the first non-empty bucket fires next; in a
			// shallow queue this is the common case.
			e := b[0]
			b[0] = event{}
			q.b[k] = q.b[k][:0] // reslicing in place stores only the length
			q.mask &^= 1 << (k - 1)
			q.last = e.at
			return e
		}
		q.refill(k)
	}
	b0 := q.b[0]
	e := b0[q.head]
	b0[q.head] = event{}
	q.head++
	if q.head == len(b0) {
		q.b[0] = q.b[0][:0]
		q.head = 0
	}
	return e
}

// refill redistributes bucket k, the first non-empty one, around its
// minimum time once bucket 0 has emptied. Every event moves to a lower
// bucket, so bucket k can be truncated first.
func (q *radixQueue) refill(k int) {
	src := q.b[k]
	q.b[k] = q.b[k][:0]
	q.mask &^= 1 << (k - 1)
	last := earliest(src)
	q.last = last
	for i := range src {
		j := bits.Len64(uint64(src[i].at ^ last))
		q.b[j] = append(q.b[j], src[i])
		if j > 0 {
			q.mask |= 1 << (j - 1)
		}
	}
	clear(src)
}

// min returns the earliest pending time without moving last: RunUntil
// peeks past its deadline, and a later At between now and that time must
// still land in a valid bucket. The queue must be non-empty.
func (q *radixQueue) min() Time {
	if q.head < len(q.b[0]) {
		return q.last
	}
	return earliest(q.b[bits.TrailingZeros64(q.mask)+1])
}

// earliest returns the minimum time in a non-empty bucket.
func earliest(b []event) Time {
	m := b[0].at
	for i := 1; i < len(b); i++ {
		if b[i].at < m {
			m = b[i].at
		}
	}
	return m
}
