package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// The benchmark's own bulk data (the operation streams drawn ahead and
// the logs of values read and written) lives outside the Go heap, so it
// neither paces the program's garbage collector nor gets scanned by it.
// Only pointer-free element types may be stored there: the collector
// does not see pointers kept in mapped memory.

// offHeap returns a zeroed slice of n elements in anonymous mapped
// memory. It panics where mapping fails: a heap fallback could not be
// told apart from a mapping when freed, and munmap on it would unmap
// live heap memory.
func offHeap[T any](n int) []T {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	if size == 0 {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("perfbench: mapping %d bytes: %v", size, err))
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// freeOffHeap releases a slice offHeap returned.
func freeOffHeap[T any](s []T) {
	if cap(s) == 0 {
		return
	}
	var zero T
	_ = syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s[:1]))), cap(s)*int(unsafe.Sizeof(zero))))
}

// logChunk is the element count of one chunk of an offLog.
const logChunk = 1 << 16

// offLog is an append-only log kept in off-heap chunks.
type offLog[T any] struct {
	full [][]T
	cur  []T
}

// add appends v and returns where it is stored; the element stays put
// until free.
func (l *offLog[T]) add(v T) *T {
	if len(l.cur) == cap(l.cur) {
		if l.cur != nil {
			l.full = append(l.full, l.cur)
		}
		l.cur = offHeap[T](logChunk)[:0]
	}
	l.cur = append(l.cur, v)
	return &l.cur[len(l.cur)-1]
}

func (l *offLog[T]) len() int { return len(l.full)*logChunk + len(l.cur) }

// appendTo appends every logged value to dst.
func (l *offLog[T]) appendTo(dst []T) []T {
	for _, c := range l.full {
		dst = append(dst, c...)
	}
	return append(dst, l.cur...)
}

// each calls f on every logged element in order.
func (l *offLog[T]) each(f func(*T)) {
	for _, c := range l.full {
		for i := range c {
			f(&c[i])
		}
	}
	for i := range l.cur {
		f(&l.cur[i])
	}
}

func (l *offLog[T]) free() {
	for _, c := range l.full {
		freeOffHeap(c)
	}
	freeOffHeap(l.cur)
	l.full, l.cur = nil, nil
}
