// Package bad stores borrowed frame-body views into places that
// outlive the frame — every function here is a use-after-release
// waiting for pool reuse, and the borrowedview analyzer must flag each.
package bad

import (
	"github.com/lpd-epfl/mvtl/internal/wire"
)

type cacheEntry struct {
	key []byte
	val []byte
}

var lastValue []byte

// fieldStore stashes a Decoder.Blob view into a struct field.
func fieldStore(e *cacheEntry, d *wire.Decoder) {
	e.key = d.Blob() // want `borrowed frame view stored into struct field e.key`
}

// globalStore parks a frame body in a package-level variable.
func globalStore(fb *wire.FrameBuf) {
	lastValue = fb.Body() // want `borrowed frame view stored into package-level variable lastValue`
}

// mapStore caches a borrowed view by key.
func mapStore(cache map[string][]byte, d *wire.Decoder) {
	v := d.Blob()
	cache["k"] = v // want `borrowed frame view stored into map cache`
}

// decodedFieldStore stores the Value field of a decoded message — a
// view into the response frame, not a copy.
func decodedFieldStore(e *cacheEntry, body []byte) error {
	resp, err := wire.DecodeReadLockBatchResp(body)
	if err != nil || len(resp.Results) == 0 {
		return err
	}
	e.val = resp.Results[0].Value // want `borrowed frame view stored into struct field e.val`
	return nil
}

// goroutineCapture lets a borrowed view outlive the synchronous frame
// lifetime by capturing it in a goroutine.
func goroutineCapture(fb *wire.FrameBuf, sink func([]byte)) {
	b := fb.Body()
	go func() {
		sink(b) // want `borrowed frame view b captured by a goroutine closure`
	}()
	fb.Release()
}
