package artifact

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Store is the warm artifact tier: a bounded, disk-backed map from content
// address to artifact bytes that sits behind the in-process plan cache. It
// survives restarts (warm restarts skip every cold build whose artifact is
// on disk) and serves peer fetches in the distributed tier.
//
// Writes are atomic — bytes land in a same-directory temp file and are
// renamed into place — so a crash mid-Put leaves either the old artifact or
// none, never a torn file. Torn or tampered files are harmless anyway: every
// read path decodes through DecodeVerified, which rejects them with typed
// errors. Eviction is oldest-write-first once the entry bound is exceeded;
// the write order is read from the directory once, at open, and kept in
// memory after, so a Put never lists the directory.
//
// A nil *Store is valid and behaves as an always-miss, drop-writes tier, so
// call sites can disable the disk tier by passing nil.
type Store struct {
	dir string
	cap int
	mu  sync.Mutex
	age *list.List               // stored addresses, oldest write at the front
	at  map[string]*list.Element // address → its element in age
}

// ext is the artifact file suffix; temp files use tmpPrefix and are ignored
// (and swept) by reads.
const (
	ext       = ".dmfbart"
	tmpPrefix = ".tmp-"
)

// DefaultStoreCapacity bounds a store opened with capacity <= 0. Artifacts
// are a few kilobytes each, so the default keeps the warm tier in the low
// tens of megabytes.
const DefaultStoreCapacity = 4096

// OpenStore opens (creating if needed) the warm tier rooted at dir, bounded
// to capacity artifacts.
func OpenStore(dir string, capacity int) (*Store, error) {
	if capacity <= 0 {
		capacity = DefaultStoreCapacity
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: open store: %w", err)
	}
	s := &Store{dir: dir, cap: capacity, age: list.New(), at: map[string]*list.Element{}}
	entries := s.entries()
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime < entries[j].mtime })
	for _, e := range entries {
		addr := strings.TrimSuffix(e.name, ext)
		s.at[addr] = s.age.PushBack(addr)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictLocked()
	return s, nil
}

// Dir returns the store's root directory ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// validAddr gates addresses before they touch the filesystem: exactly the
// lowercase-hex sha256 form AddressFor produces. Anything else (path
// separators, "..", uppercase) is rejected, so an address can never escape
// the store directory.
func validAddr(addr string) bool {
	if len(addr) != 64 {
		return false
	}
	for i := 0; i < len(addr); i++ {
		c := addr[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(addr string) string { return filepath.Join(s.dir, addr+ext) }

// Get returns the stored bytes for addr. The caller still owns verification:
// bytes from disk are untrusted until DecodeVerified accepts them.
func (s *Store) Get(addr string) ([]byte, bool) {
	if s == nil || !validAddr(addr) {
		return nil, false
	}
	data, err := os.ReadFile(s.path(addr))
	if err != nil {
		obs.Inc("artifact.disk.misses")
		return nil, false
	}
	obs.Inc("artifact.disk.hits")
	return data, true
}

// Put stores bytes under addr atomically (temp file + rename), then evicts
// oldest-first past the capacity bound. Re-putting an existing address
// refreshes its bytes and age.
func (s *Store) Put(addr string, data []byte) error {
	if s == nil {
		return nil
	}
	if !validAddr(addr) {
		return fmt.Errorf("%w: invalid address %q", ErrCorrupt, addr)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("artifact: put: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: put: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(addr)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: put: %w", err)
	}
	obs.Inc("artifact.disk.puts")
	if el, ok := s.at[addr]; ok {
		s.age.MoveToBack(el)
	} else {
		s.at[addr] = s.age.PushBack(addr)
	}
	s.evictLocked()
	return nil
}

// Len returns the number of stored artifacts.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	return len(s.entries())
}

// Capacity returns the store's artifact-count bound.
func (s *Store) Capacity() int {
	if s == nil {
		return 0
	}
	return s.cap
}

type diskEntry struct {
	name  string
	mtime int64
}

// entries lists the artifact files in the directory, skipping temp files.
func (s *Store) entries() []diskEntry {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	entries := make([]diskEntry, 0, len(des))
	for _, de := range des {
		name := de.Name()
		if !strings.HasSuffix(name, ext) || strings.HasPrefix(name, tmpPrefix) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		entries = append(entries, diskEntry{name: name, mtime: info.ModTime().UnixNano()})
	}
	return entries
}

// evictLocked removes oldest-written artifacts until the store is within its
// bound. Put always rewrites the file and moves it to the back of age, so a
// refresh renews age; a file already removed by hand just leaves the order.
func (s *Store) evictLocked() {
	for s.age.Len() > s.cap {
		addr := s.age.Remove(s.age.Front()).(string)
		delete(s.at, addr)
		if os.Remove(s.path(addr)) == nil {
			obs.Inc("artifact.disk.evictions")
		}
	}
}
