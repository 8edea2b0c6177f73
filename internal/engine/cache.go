package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Version tags every cache key. Bump it whenever the simulation semantics
// behind cached results change (pipeline timing, transformation
// algorithm, workload generation), so stale entries can never be served.
// v2: entries are enveloped (see Cache), so v1 entries are plain misses.
const Version = "vanguard-engine/v2"

// Cache is a content-keyed on-disk result store. Entries are immutable
// once written: a key fully determines its value, so there is no
// invalidation beyond the Version tag folded into every key. Each entry
// is an envelope — one header line holding the entry's key and the
// sha256 of its payload, then the payload — and Get serves only an entry
// whose header matches both, so a truncated, bit-flipped or misplaced
// file is never taken for a result. All methods are safe for concurrent
// use; writes are atomic (temp file + rename), so concurrent processes
// can share one directory.
type Cache struct {
	dir string
}

// Open creates (if needed) and opens a cache directory.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("engine: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// DefaultDir returns the conventional cache location
// (os.UserCacheDir()/vanguard/runs), or "" when the platform reports no
// user cache directory.
func DefaultDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "vanguard", "runs")
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// path fans entries across 256 subdirectories to keep listings fast.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".entry")
}

// header is the envelope line stored ahead of payload under key.
func header(key string, payload []byte) string {
	sum := sha256.Sum256(payload)
	return key + " " + hex.EncodeToString(sum[:]) + "\n"
}

// Get returns the payload stored under key, if an intact entry is
// present.
func (c *Cache) Get(key string) ([]byte, bool) {
	data, _ := c.get(key)
	return data, data != nil
}

// get reads key's entry: its payload, or nil with corrupt set when a file
// is there but its envelope does not hold key and the payload's sha256.
func (c *Cache) get(key string) (payload []byte, corrupt bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	n := len(key) + 2*sha256.Size + 2
	if len(data) < n || string(data[:n]) != header(key, data[n:]) {
		return nil, true
	}
	return data[n:], false
}

// Put stores data under key in an envelope, replacing any entry there.
// The cache is an optimization, so failures (disk full, read-only media)
// are swallowed: the run still has its computed result.
func (c *Cache) Put(key string, data []byte) {
	p := c.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), ".put-*")
	if err != nil {
		return
	}
	if _, err := tmp.WriteString(header(key, data)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
	}
}

// Key derives a content key from the JSON encodings of parts, prefixed by
// the engine Version. Parts must be pure data (JSON-encodable); a
// non-encodable part panics, because a silently truncated key could alias
// distinct configurations.
func Key(parts ...any) string {
	h := sha256.New()
	io.WriteString(h, Version+"\n")
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			panic(fmt.Sprintf("engine: unencodable key part %T: %v", p, err))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
