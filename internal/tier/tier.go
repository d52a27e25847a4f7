// Package tier provides the slow-memory tiers and the residency manager
// behind CoRM's elastic-memory mode (ROADMAP item 2). A node may advertise
// more virtual blocks than it has physical frames; cold blocks spill their
// bytes into a Tier and give their frames back to the budgeted allocator,
// and a later access faults them back in. The discipline follows the
// no-pinning ODP model of NP-RDMA and the page-fault-handling literature:
// nothing is wired, a one-sided access to an evicted page simply takes the
// (simulated) fault path.
package tier

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Tier stores the byte images of evicted blocks, keyed by the block's
// virtual base address. Implementations are safe for concurrent use; the
// per-block exclusion (never spilling and filling the same key at once) is
// the Residency manager's job.
type Tier interface {
	// Name identifies the tier ("compressed", "disk") for metrics/reports.
	Name() string
	// Put stores the block image for key, replacing any previous one.
	// data may be empty in accounting-only mode.
	Put(key uint64, data []byte) error
	// Get fills buf with the stored image for key. The stored image must
	// be exactly len(buf) bytes.
	Get(key uint64, buf []byte) error
	// Has reports whether an image is stored for key, without reading it.
	Has(key uint64) bool
	// Delete drops the stored image for key, if any.
	Delete(key uint64)
	// Blocks reports how many block images the tier holds.
	Blocks() int
	// StoredBytes reports the physical bytes the tier occupies (after
	// compression, for the compressed tier).
	StoredBytes() int64
	// Close releases tier resources (the disk tier's spill directory).
	Close() error
}

// Open builds a tier from a spec string: "compressed" (in-memory, flate),
// "disk" (files in a fresh temp directory), "disk:<dir>" (files under
// dir), or "off"/"" for no tier (nil).
func Open(spec string) (Tier, error) {
	switch {
	case spec == "" || spec == "off":
		return nil, nil
	case spec == "compressed":
		return NewCompressed(), nil
	case spec == "disk":
		return NewDisk("")
	case strings.HasPrefix(spec, "disk:"):
		return NewDisk(strings.TrimPrefix(spec, "disk:"))
	default:
		return nil, fmt.Errorf("tier: unknown spec %q (want compressed, disk, disk:<dir>, off)", spec)
	}
}

// Compressed is an in-memory tier that flate-compresses block images —
// the "compressed RAM as a slow tier" point in the tiering design space
// (zswap-style). Cold blocks tend to carry repetitive slot headers and
// zeroed tails, so even BestSpeed usually earns several-fold headroom.
type Compressed struct {
	mu     sync.Mutex
	blobs  map[uint64][]byte
	stored int64
}

// NewCompressed creates an empty compressed in-memory tier.
func NewCompressed() *Compressed {
	return &Compressed{blobs: make(map[uint64][]byte)}
}

// Name implements Tier.
func (c *Compressed) Name() string { return "compressed" }

// flate writer/reader state is hundreds of KiB per instance (window +
// hash tables); allocating it per spill turns a busy eviction path into a
// GC storm whose pauses show up as latency spikes on *resident* reads.
// Pool and Reset instead. Each pooled value carries the buffer its flate
// half works against, so a Put or Get allocates nothing but the stored
// blob itself.
var (
	compressors   sync.Pool // *compressor
	decompressors sync.Pool // *decompressor
)

// compressor is a flate writer bound to its staging buffer.
type compressor struct {
	buf bytes.Buffer
	w   *flate.Writer
}

// decompressor is a flate reader bound to the bytes.Reader it drains.
type decompressor struct {
	src bytes.Reader
	r   io.ReadCloser
}

// Put implements Tier.
func (c *Compressed) Put(key uint64, data []byte) error {
	var blob []byte
	if len(data) > 0 {
		z, _ := compressors.Get().(*compressor)
		if z == nil {
			z = new(compressor)
			var err error
			if z.w, err = flate.NewWriter(&z.buf, flate.BestSpeed); err != nil {
				return fmt.Errorf("tier: flate init: %w", err)
			}
		} else {
			z.buf.Reset()
			z.w.Reset(&z.buf)
		}
		if _, err := z.w.Write(data); err != nil {
			return fmt.Errorf("tier: compress: %w", err)
		}
		if err := z.w.Close(); err != nil {
			return fmt.Errorf("tier: compress: %w", err)
		}
		// Store an exact-size copy: the staging buffer grew by doubling, and
		// keeping it would pin up to twice the bytes StoredBytes reports.
		blob = make([]byte, z.buf.Len())
		copy(blob, z.buf.Bytes())
		compressors.Put(z)
	}
	c.mu.Lock()
	if old, ok := c.blobs[key]; ok {
		c.stored -= int64(len(old))
	}
	c.blobs[key] = blob
	c.stored += int64(len(blob))
	c.mu.Unlock()
	return nil
}

// Get implements Tier.
func (c *Compressed) Get(key uint64, buf []byte) error {
	c.mu.Lock()
	blob, ok := c.blobs[key]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("tier: no spilled image for %#x", key)
	}
	if len(buf) == 0 {
		return nil
	}
	z, _ := decompressors.Get().(*decompressor)
	if z == nil {
		z = new(decompressor)
		z.src.Reset(blob)
		z.r = flate.NewReader(&z.src)
	} else {
		z.src.Reset(blob)
		if err := z.r.(flate.Resetter).Reset(&z.src, nil); err != nil {
			return fmt.Errorf("tier: flate reset: %w", err)
		}
	}
	n, err := io.ReadFull(z.r, buf)
	if err != nil {
		return fmt.Errorf("tier: decompress %#x after %d bytes: %w", key, n, err)
	}
	if extra, _ := io.Copy(io.Discard, z.r); extra != 0 {
		return fmt.Errorf("tier: spilled image for %#x is %d bytes too long", key, extra)
	}
	if err := z.r.Close(); err != nil {
		return err
	}
	z.src.Reset(nil) // the pool must not keep the blob alive
	decompressors.Put(z)
	return nil
}

// Has implements Tier.
func (c *Compressed) Has(key uint64) bool {
	c.mu.Lock()
	_, ok := c.blobs[key]
	c.mu.Unlock()
	return ok
}

// Delete implements Tier.
func (c *Compressed) Delete(key uint64) {
	c.mu.Lock()
	if old, ok := c.blobs[key]; ok {
		c.stored -= int64(len(old))
		delete(c.blobs, key)
	}
	c.mu.Unlock()
}

// Blocks implements Tier.
func (c *Compressed) Blocks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.blobs)
}

// StoredBytes implements Tier.
func (c *Compressed) StoredBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stored
}

// Close implements Tier.
func (c *Compressed) Close() error {
	c.mu.Lock()
	c.blobs = make(map[uint64][]byte)
	c.stored = 0
	c.mu.Unlock()
	return nil
}

// Disk spills block images to one file per block under a directory —
// the classic swap-to-storage tier. With dir == "" it creates (and owns,
// and removes on Close) a fresh temp directory.
type Disk struct {
	dir   string
	owned bool

	mu     sync.Mutex
	sizes  map[uint64]int64
	stored int64
}

// NewDisk creates a disk tier rooted at dir, or at a fresh temp directory
// when dir is empty.
func NewDisk(dir string) (*Disk, error) {
	owned := false
	if dir == "" {
		d, err := os.MkdirTemp("", "corm-tier-")
		if err != nil {
			return nil, fmt.Errorf("tier: spill dir: %w", err)
		}
		dir, owned = d, true
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tier: spill dir: %w", err)
	}
	return &Disk{dir: dir, owned: owned, sizes: make(map[uint64]int64)}, nil
}

// Dir returns the spill directory.
func (d *Disk) Dir() string { return d.dir }

// Name implements Tier.
func (d *Disk) Name() string { return "disk" }

func (d *Disk) path(key uint64) string {
	return filepath.Join(d.dir, fmt.Sprintf("block-%016x.spill", key))
}

// Put implements Tier.
func (d *Disk) Put(key uint64, data []byte) error {
	if err := os.WriteFile(d.path(key), data, 0o600); err != nil {
		return fmt.Errorf("tier: spill write: %w", err)
	}
	d.mu.Lock()
	if old, ok := d.sizes[key]; ok {
		d.stored -= old
	}
	d.sizes[key] = int64(len(data))
	d.stored += int64(len(data))
	d.mu.Unlock()
	return nil
}

// Get implements Tier.
func (d *Disk) Get(key uint64, buf []byte) error {
	data, err := os.ReadFile(d.path(key))
	if err != nil {
		return fmt.Errorf("tier: spill read %#x: %w", key, err)
	}
	if len(data) != len(buf) {
		return fmt.Errorf("tier: spilled image for %#x is %d bytes, want %d", key, len(data), len(buf))
	}
	copy(buf, data)
	return nil
}

// Has implements Tier.
func (d *Disk) Has(key uint64) bool {
	d.mu.Lock()
	_, ok := d.sizes[key]
	d.mu.Unlock()
	return ok
}

// Delete implements Tier.
func (d *Disk) Delete(key uint64) {
	d.mu.Lock()
	if old, ok := d.sizes[key]; ok {
		d.stored -= old
		delete(d.sizes, key)
		d.mu.Unlock()
		os.Remove(d.path(key))
		return
	}
	d.mu.Unlock()
}

// Blocks implements Tier.
func (d *Disk) Blocks() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.sizes)
}

// StoredBytes implements Tier.
func (d *Disk) StoredBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stored
}

// Close implements Tier. An owned temp directory is removed entirely.
func (d *Disk) Close() error {
	d.mu.Lock()
	d.sizes = make(map[uint64]int64)
	d.stored = 0
	d.mu.Unlock()
	if d.owned {
		return os.RemoveAll(d.dir)
	}
	return nil
}
