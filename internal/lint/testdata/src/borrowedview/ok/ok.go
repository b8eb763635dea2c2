// Package ok uses borrowed frame views correctly: cloned before any
// store that outlives the frame, or kept strictly local. The
// borrowedview analyzer must stay silent.
package ok

import (
	"bytes"

	"github.com/lpd-epfl/mvtl/internal/wire"
)

type cacheEntry struct {
	key []byte
	val []byte
	str string
}

var lastValue []byte

// cloneThenStore is the tricky satellite case: bytes.Clone sanitizes
// the view, so the store is fine.
func cloneThenStore(e *cacheEntry, d *wire.Decoder) {
	e.key = bytes.Clone(d.Blob())
}

// cloneViaVar re-binds the variable to a clone before the store.
func cloneViaVar(e *cacheEntry, d *wire.Decoder) {
	v := d.Blob()
	v = bytes.Clone(v)
	e.val = v
}

// stringCopy converts to string — a copying conversion.
func stringCopy(e *cacheEntry, d *wire.Decoder) {
	e.str = string(d.Blob())
}

// appendCopy copies into a fresh backing array.
func appendCopy(fb *wire.FrameBuf) {
	lastValue = append([]byte(nil), fb.Body()...)
}

// localUse reads the view synchronously and lets it die with the frame.
func localUse(d *wire.Decoder) int {
	v := d.Blob()
	n := 0
	for _, b := range v {
		n += int(b)
	}
	return n
}

// decodedClone clones a decoded message's blob field before caching it.
func decodedClone(cache map[string][]byte, body []byte) error {
	resp, err := wire.DecodeReadLockBatchResp(body)
	if err != nil || len(resp.Results) == 0 {
		return err
	}
	cache["k"] = bytes.Clone(resp.Results[0].Value)
	return nil
}
