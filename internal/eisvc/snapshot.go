package eisvc

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"energyclarity/internal/core"
)

// Persistent warm-start caches. A daemon's value after the first hour is
// mostly the state of its memo and layer caches; losing them on restart
// means re-homing every key over HTTP one peer probe (or worse, one
// evaluation) at a time. A cache snapshot serializes both stores in the
// binary wire format so a restarted or newly joined node loads warm in
// milliseconds.
//
// File layout: the standard frame header (magic "EIB" + version,
// kindSnapshot), the node ID, the memo entries (key + exact support/probs
// vectors), the layer entries (key + scalar), and a trailing CRC-32
// (IEEE) of everything before it. Loading verifies magic, version, and
// checksum before touching either cache; any mismatch — truncation, a
// stale format, bit rot — fails the load and the node simply starts
// cold. Staleness is not checked. Memo keys embed interface versions and
// layer keys subtree version folds, so entries from before a re-register
// or rebind in the same process are unreachable. Across processes that
// fails: versions restart at 1 in each, so a process that registered a
// changed source under the same name answers from the snapshot's old tree.

// LayerEntry re-exports the layer cache's persisted entry type so wire
// users need not import core.
type LayerEntry = core.LayerEntry

// CacheSnapshot is one node's persistable cache state.
type CacheSnapshot struct {
	NodeID string
	Memo   []MemoEntry
	Layer  []LayerEntry
}

// snapshotCodec is the snapshot file's frame, laid out by coder.snapshot,
// trailing checksum included. Decoding it verifies the file: any
// corruption — bad magic, wrong version, truncation, checksum mismatch —
// is an error, and a partial snapshot is never returned.
var snapshotCodec = Codec[CacheSnapshot]{kind: kindSnapshot, layout: (*coder).snapshot}

// CacheSnapshot captures the server's current memo and layer caches.
func (s *Server) CacheSnapshot() *CacheSnapshot {
	snap := &CacheSnapshot{NodeID: s.cfg.NodeID, Memo: s.memo.Entries()}
	if s.layer != nil {
		snap.Layer = s.layer.Snapshot()
	}
	return snap
}

// RestoreCacheSnapshot installs a snapshot into the live caches and
// returns how many memo and layer entries were accepted. Entries that
// fail validation are skipped, never served.
func (s *Server) RestoreCacheSnapshot(snap *CacheSnapshot) (memoN, layerN int) {
	memoN = s.memo.Restore(snap.Memo)
	if s.layer != nil {
		layerN = s.layer.Restore(snap.Layer)
	}
	return memoN, layerN
}

// SaveCacheSnapshot atomically writes the current caches to path
// (temp file + rename, so a crash mid-write leaves the previous
// snapshot intact, not a torn file).
func (s *Server) SaveCacheSnapshot(path string) error {
	buf := GetBuffer()
	defer PutBuffer(buf)
	if err := snapshotCodec.Encode(buf, BinaryContentType, s.CacheSnapshot()); err != nil {
		return fmt.Errorf("eisvc: snapshot: encode: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("eisvc: snapshot: %w", err)
	}
	_, err = tmp.Write(buf.Bytes())
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("eisvc: snapshot: %w", err) // the os error names the step
	}
	return nil
}

// LoadCacheSnapshot reads, verifies, and installs a snapshot file. On
// any verification failure the caches are left untouched and the error
// describes what was wrong — the caller logs it and serves cold. A
// missing file is also just an error (the common, harmless first-boot
// case); check os.IsNotExist to silence it.
func (s *Server) LoadCacheSnapshot(path string) (memoN, layerN int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	snap, err := snapshotCodec.Decode(BinaryContentType, data)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", path, err)
	}
	memoN, layerN = s.RestoreCacheSnapshot(snap)
	return memoN, layerN, nil
}

// StartSnapshotLoop saves the caches to path every interval until the
// returned stop function is called; stop performs one final save (the
// on-drain snapshot) before returning. Save errors are delivered to
// onErr (nil means they are dropped) and do not stop the loop.
func (s *Server) StartSnapshotLoop(path string, interval time.Duration, onErr func(error)) (stop func()) {
	if interval <= 0 {
		interval = time.Minute
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	save := func() {
		if err := s.SaveCacheSnapshot(path); err != nil && onErr != nil {
			onErr(err)
		}
	}
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				save()
			case <-done:
				save()
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
