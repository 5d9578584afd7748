package edge

import (
	"bytes"
	"errors"
	"fmt"
	"os"

	"pkgstream/internal/route"
	"pkgstream/internal/sketch"
	"pkgstream/internal/wire"
)

// SketchSummary snapshots this edge's hot-key sketch; ok is false for
// modes that keep none.
func (w *Wire) SketchSummary() (sketch.Summary, bool) {
	ha, ok := w.part.(route.HotAware)
	if !ok {
		return sketch.Summary{}, false
	}
	return ha.Classifier().Snapshot(), true
}

// saveSketch wire-encodes the sketch snapshot and writes it atomically
// to opts.SketchPath.
func (w *Wire) saveSketch() error {
	sum, ok := w.SketchSummary()
	if !ok {
		return nil
	}
	ws := summaryToWire(sum)
	buf := wire.AppendSketch(nil, &ws)
	path := w.opts.SketchPath
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("edge: checkpoint sketch: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("edge: checkpoint sketch: %w", err)
	}
	return nil
}

// restoreSketch re-warms the classifier from opts.SketchPath, if the
// file exists. A missing file is not an error (first run); a corrupt
// one is, and so is a SketchPath on a mode that keeps no sketch.
func (w *Wire) restoreSketch() error {
	path := w.opts.SketchPath
	ha, ok := w.part.(route.HotAware)
	if !ok {
		return fmt.Errorf("edge: SketchPath set for mode %v, which keeps no sketch", w.opts.Mode)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("edge: restore sketch: %w", err)
	}
	kind, payload, err := wire.ReadFrame(bytes.NewReader(raw), nil)
	if err != nil {
		return fmt.Errorf("edge: restore sketch %s: %w", path, err)
	}
	if kind != wire.KindSketch {
		return fmt.Errorf("edge: restore sketch %s: unexpected %v frame", path, kind)
	}
	ws, err := wire.DecodeSketch(payload)
	if err != nil {
		return fmt.Errorf("edge: restore sketch %s: %w", path, err)
	}
	if err := ha.Classifier().Restore(wireToSummary(ws)); err != nil {
		return fmt.Errorf("edge: restore sketch %s: %w", path, err)
	}
	return nil
}

// summaryToWire converts a sketch summary to its wire form.
func summaryToWire(sum sketch.Summary) wire.Sketch {
	ws := wire.Sketch{K: sum.K, N: sum.N, Items: make([]wire.SketchItem, len(sum.Items))}
	for i, it := range sum.Items {
		ws.Items[i] = wire.SketchItem{Item: it.Item, Count: it.Count, Err: it.Err}
	}
	return ws
}

// wireToSummary converts a wire sketch back to a sketch summary.
func wireToSummary(ws wire.Sketch) sketch.Summary {
	sum := sketch.Summary{K: ws.K, N: ws.N, Items: make([]sketch.Counted, len(ws.Items))}
	for i, it := range ws.Items {
		sum.Items[i] = sketch.Counted{Item: it.Item, Count: it.Count, Err: it.Err}
	}
	return sum
}
