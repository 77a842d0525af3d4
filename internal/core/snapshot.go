package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
)

// Snapshot format v4 — a self-describing binary image of one engine, laid
// out so the bulky part (the retained windows) restores by slicing a
// page-aligned region out of a memory-mapped file, without a full decode:
//
//	"TKCMSNAP"          8-byte magic
//	version             uint32 LE (currently 4)
//	metaLen             uint64 LE
//	meta                metaLen bytes (layout below)
//	metaCRC             uint32 LE, IEEE CRC-32 of meta
//	zero padding        up to windowOff, the smallest multiple of 4096
//	                    past the metaCRC
//	window region       width × filled IEEE-754 float64 LE, stream-major:
//	                    stream i's retained values (oldest first) start at
//	                    windowOff + i×filled×8
//	windowCRC           uint32 LE, IEEE CRC-32 of the window region
//
// The meta section encodes, in order: the Config, the stream names, the
// (possibly lazily ranked) reference sets, the engine and window tick
// counters, the Stats counters, the per-stream cold-start fallback values,
// the retained tick count (filled), the profiler section (v4+, below), and
// finally windowOff as a fixed-width uint64 LE. Integers are varints, floats
// are IEEE-754 bits LE, strings are uvarint-length prefixed UTF-8, float
// slices are uvarint-length prefixed.
//
// The profiler section carries the incremental profiler's state, because
// it is not derivable from the windows: aggregates caught up by replaying
// deferred ticks round differently from aggregates rebuilt from scratch,
// and near-tie anchor selections flip on that rounding. It is a stream
// count — zero without an incremental profiler or retained values, else the
// width — and then per stream: the window's start in the 2L history backing
// (which decides when the backing compacts, and so whether a later catch-up
// may replay), and whether the aggregates are valid — aggregates the next
// catch-up can no longer replay are written as invalid, since it rebuilds
// them from the window either way. Valid aggregates add the ticks deferred
// since the last catch-up, the window length at that catch-up, the ticks
// since the last full rebuild, the catch-up's start relative to the window
// start, the history values between it and the window start (float slice),
// cross (float slice), the live candidate energies (as many as cross) and
// the query energy. Restore reinstates all of it, so a restored engine
// continues bit-identically to an uninterrupted one.
//
// Older images restore as before: version 3 has no profiler section, so
// restore bulk-loads the windows and the first consult of each stream
// rebuilds its aggregates. Version 1 and 2 images — a single varint payload
// with the window values inlined after the retained count, under one
// trailing CRC; v1 additionally predates Config.Float32Profiles — restore
// through the legacy path.
const (
	snapMagic   = "TKCMSNAP"
	snapVersion = 4
	// snapVersionMin is the oldest image version restore still accepts.
	snapVersionMin = 1
	// snapAlign is the v3+ window region's alignment: one page, so a
	// memory-mapped image hands the region straight to the bulk loads.
	snapAlign = 4096
	// snapHeaderLen is the fixed prefix before the payload/meta section.
	snapHeaderLen = 20
	// maxSnapSection (64 GiB) bounds every length decoded from an image
	// before memory proportional to it is allocated.
	maxSnapSection = 1 << 36
)

// snapAlignUp rounds n up to the next multiple of snapAlign.
func snapAlignUp(n int) int { return (n + snapAlign - 1) &^ (snapAlign - 1) }

// Snapshot writes a versioned binary image of the engine's state — config,
// reference sets, retained windows, counters, profiler state — to w,
// restorable with RestoreEngine. It must not run concurrently with Tick or
// TickBatch (take snapshots between ticks; a single-goroutine owner, like a
// serving shard, satisfies this for free).
func (e *Engine) Snapshot(w io.Writer) error {
	enc := &snapEncoder{}
	e.encodeSnapMeta(enc)
	encodeProfilerState(enc, e.profilerImages())
	return e.writeImage(w, snapVersion, enc)
}

// writeImage frames the encoded meta section enc (everything but the
// trailing windowOff) as a version-tagged image — header, meta, CRC,
// padding — and appends the engine's window region.
func (e *Engine) writeImage(w io.Writer, version uint32, enc *snapEncoder) error {
	metaLen := enc.buf.Len() + 8 // plus the fixed-width windowOff below
	windowOff := snapAlignUp(snapHeaderLen + metaLen + 4)
	enc.fixed64(uint64(windowOff))
	meta := enc.buf.Bytes()

	var hdr [snapHeaderLen]byte
	copy(hdr[:8], snapMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], version)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(meta)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(meta))
	pad := make([]byte, windowOff-snapHeaderLen-len(meta)-4)
	for _, blk := range [][]byte{hdr[:], meta, crc[:], pad} {
		if _, err := w.Write(blk); err != nil {
			return fmt.Errorf("core: snapshot: %w", err)
		}
	}

	filled := e.w.Filled()
	hist := make([]float64, filled)
	buf := make([]byte, filled*8)
	sum := uint32(0)
	for i := 0; i < e.w.Width(); i++ {
		vals := e.w.SnapshotInto(i, hist)
		for j, v := range vals {
			binary.LittleEndian.PutUint64(buf[j*8:], math.Float64bits(v))
		}
		sum = crc32.Update(sum, crc32.IEEETable, buf[:len(vals)*8])
		if _, err := w.Write(buf[:len(vals)*8]); err != nil {
			return fmt.Errorf("core: snapshot: %w", err)
		}
	}
	binary.LittleEndian.PutUint32(crc[:], sum)
	if _, err := w.Write(crc[:]); err != nil {
		return fmt.Errorf("core: snapshot: %w", err)
	}
	return nil
}

// encodeSnapMeta writes the meta section — everything except the window
// values and the trailing windowOff field — into enc. The v1/v2 payload is
// this same prefix with the window values inlined after it, which is what
// lets both decoders share decodeSnapMeta.
func (e *Engine) encodeSnapMeta(enc *snapEncoder) {
	enc.encodeConfig(e.cfg)

	names := e.w.Names()
	enc.uint(uint64(len(names)))
	for _, n := range names {
		enc.str(n)
	}

	// Reference sets, sorted by stream name so identical engines produce
	// byte-identical snapshots (map iteration order is randomized).
	keys := make([]string, 0, len(e.refs))
	for k := range e.refs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	enc.uint(uint64(len(keys)))
	for _, k := range keys {
		rs := e.refs[k]
		enc.str(k)
		enc.str(rs.Stream)
		enc.uint(uint64(len(rs.Candidates)))
		for _, c := range rs.Candidates {
			enc.str(c)
		}
	}

	enc.int(int64(e.tick))
	enc.int(int64(e.w.Tick()))
	enc.int(int64(e.Stats.Ticks))
	enc.int(int64(e.Stats.Imputations))
	enc.int(int64(e.Stats.ColdStartFills))
	enc.int(int64(e.Stats.ReferenceErrors))
	enc.int(int64(e.Stats.InsufficientHist))

	for _, v := range e.last {
		enc.float(v)
	}

	enc.uint(uint64(e.w.Filled()))
}

// profilerImages returns every stream's incremental profiler state, or nil
// without an incremental profiler or retained values. The images alias live
// state (see IncrementalProfiler.image).
func (e *Engine) profilerImages() []incStreamImage {
	if e.inc == nil || e.w.Filled() == 0 {
		return nil
	}
	imgs := make([]incStreamImage, len(e.inc.states))
	for i := range imgs {
		imgs[i] = e.inc.image(i)
	}
	return imgs
}

// encodeProfilerState writes the v4 profiler section: the stream count
// (zero for no state), then each stream's incStreamImage — history start,
// validity, and for valid aggregates the deferral counters, sync geometry,
// the values between the last sync and the window start, cross, the live
// energy entries and eq.
func encodeProfilerState(enc *snapEncoder, imgs []incStreamImage) {
	enc.uint(uint64(len(imgs)))
	for _, img := range imgs {
		enc.uint(uint64(img.start))
		enc.bool(img.valid)
		if !img.valid {
			continue
		}
		enc.uint(uint64(img.deferred))
		enc.uint(uint64(img.syncM))
		enc.uint(uint64(img.sinceRebuild))
		enc.int(int64(img.syncRel))
		enc.floats(img.pre)
		enc.floats(img.cross)
		for _, v := range img.energy {
			enc.float(v)
		}
		enc.float(img.eq)
	}
}

// decodeProfilerState parses the v4 profiler section into m.inc, bounding
// every count by the bytes present. Shape checks against the config happen
// in finish, which owns the profiler they are checked against.
func decodeProfilerState(dec *snapDecoder, m *snapMeta) {
	n := int(dec.uint())
	if dec.err != nil || n == 0 {
		return
	}
	if n != len(m.names) || m.filled == 0 {
		dec.fail(fmt.Errorf("profiler state for %d streams, want %d with %d retained values", n, len(m.names), m.filled))
		return
	}
	m.inc = make([]incStreamImage, n)
	for i := range m.inc {
		img := &m.inc[i]
		img.start = int(dec.uint())
		img.valid = dec.bool()
		if !img.valid {
			continue
		}
		img.deferred = int(dec.uint())
		img.syncM = int(dec.uint())
		img.sinceRebuild = int(dec.uint())
		img.syncRel = int(dec.int())
		img.pre = dec.floats(0)
		// cross and energy are decoded with the capacity the live profiler
		// slides them in, so IncrementalProfiler.restoreStream keeps them
		// without a copy.
		img.cross = dec.floats(m.cfg.WindowLength - 2*m.cfg.PatternLength + 1)
		img.energy = dec.floatsN(uint64(len(img.cross)), 2*m.cfg.WindowLength)
		img.eq = dec.float()
	}
}

// RestoreEngine reconstructs an engine from a Snapshot image. The restored
// engine continues exactly where the snapshotted one left off: same config,
// reference sets, retained windows, tick counters, cold-start state and,
// for current images, incremental profiler state, so its later outputs are
// bit-identical to an uninterrupted engine's. Images older than version 4
// carry no profiler state; their aggregates are rebuilt from the windows on
// first use, which matches an uninterrupted engine only to within the
// incremental profiler's rebuild tolerance (~1e-9).
func RestoreEngine(r io.Reader) (*Engine, error) {
	return restoreEngine(r, nil)
}

// RestoreEngineWithConfig restores a Snapshot image like RestoreEngine but
// additionally checks the image against the configuration the caller intends
// to serve it under: a snapshot taken with Float32Profiles set refuses to
// restore into a config expecting float64 profile aggregates, and vice versa,
// with a clear error in both directions. The two precisions produce slightly
// different rankings, so silently flipping modes across a restart would break
// the serving layer's equivalence guarantees.
func RestoreEngineWithConfig(r io.Reader, want Config) (*Engine, error) {
	return restoreEngine(r, &want)
}

func restoreEngine(r io.Reader, expect *Config) (*Engine, error) {
	var hdr [snapHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: restore: reading header: %w", err)
	}
	if string(hdr[:8]) != snapMagic {
		return nil, fmt.Errorf("core: restore: bad magic %q (not a TKCM snapshot)", hdr[:8])
	}
	version := binary.LittleEndian.Uint32(hdr[8:12])
	if version < snapVersionMin || version > snapVersion {
		return nil, fmt.Errorf("core: restore: unsupported snapshot version %d (want %d..%d)", version, snapVersionMin, snapVersion)
	}
	n := binary.LittleEndian.Uint64(hdr[12:20])
	if n > maxSnapSection {
		return nil, fmt.Errorf("core: restore: implausible payload length %d", n)
	}
	if version >= 3 {
		return restoreV3Stream(r, int(n), version, expect)
	}

	// Legacy v1/v2: one varint payload, window values inlined, one CRC.
	payload, err := readSection(r, int64(n))
	if err != nil {
		return nil, fmt.Errorf("core: restore: reading payload: %w", err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return nil, fmt.Errorf("core: restore: reading checksum: %w", err)
	}
	if want, got := binary.LittleEndian.Uint32(crc[:]), crc32.ChecksumIEEE(payload); want != got {
		return nil, fmt.Errorf("core: restore: checksum mismatch (snapshot corrupt)")
	}

	dec := &snapDecoder{b: payload}
	m, err := decodeSnapMeta(dec, version, expect)
	if err != nil {
		return nil, err
	}
	// A valid payload must still contain 8 bytes per retained value, so the
	// remaining length bounds the allocation (and rules out width*filled
	// overflowing, since both factors were bounded in decodeSnapMeta).
	if rem := len(dec.b) - dec.off; m.filled > 0 && m.filled > rem/(8*len(m.names)) {
		return nil, fmt.Errorf("core: restore: retained window (%d streams × %d ticks) exceeds the %d payload bytes", len(m.names), m.filled, rem)
	}
	hist := make([]float64, len(m.names)*m.filled)
	for i := range hist {
		hist[i] = dec.float()
	}
	if dec.err != nil {
		return nil, fmt.Errorf("core: restore: %w", dec.err)
	}
	if dec.off != len(dec.b) {
		return nil, fmt.Errorf("core: restore: %d trailing bytes after payload", len(dec.b)-dec.off)
	}
	return m.finish(hist)
}

// readSection reads exactly n bytes from r. The buffer grows with the bytes
// that actually arrive instead of being sized from n up front, so a length
// field crafted near the section bound cannot allocate gigabytes from a
// short image.
func readSection(r io.Reader, n int64) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, n))
	if err == nil && int64(len(b)) < n {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

// restoreV3Stream reads a v3+ image section by section from r — meta, its
// CRC, the alignment padding, then the window region — with every length
// validated before it is read.
func restoreV3Stream(r io.Reader, metaLen int, version uint32, expect *Config) (*Engine, error) {
	meta, err := readSection(r, int64(metaLen))
	if err != nil {
		return nil, fmt.Errorf("core: restore: reading meta: %w", err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return nil, fmt.Errorf("core: restore: reading meta checksum: %w", err)
	}
	if want, got := binary.LittleEndian.Uint32(crc[:]), crc32.ChecksumIEEE(meta); want != got {
		return nil, fmt.Errorf("core: restore: meta checksum mismatch (snapshot corrupt)")
	}
	m, windowOff, err := parseV3Meta(meta, version, expect)
	if err != nil {
		return nil, err
	}
	pad := make([]byte, windowOff-snapHeaderLen-metaLen-4)
	if _, err := io.ReadFull(r, pad); err != nil {
		return nil, fmt.Errorf("core: restore: reading padding: %w", err)
	}
	for _, b := range pad {
		if b != 0 {
			return nil, fmt.Errorf("core: restore: nonzero padding before the window region")
		}
	}
	windowBytes := int64(len(m.names)) * int64(m.filled) * 8
	if windowBytes > maxSnapSection {
		return nil, fmt.Errorf("core: restore: implausible window region size %d", windowBytes)
	}
	region, err := readSection(r, windowBytes)
	if err != nil {
		return nil, fmt.Errorf("core: restore: reading window region: %w", err)
	}
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return nil, fmt.Errorf("core: restore: reading window checksum: %w", err)
	}
	if want, got := binary.LittleEndian.Uint32(crc[:]), crc32.ChecksumIEEE(region); want != got {
		return nil, fmt.Errorf("core: restore: window checksum mismatch (snapshot corrupt)")
	}
	return m.finish(decodeWindowRegion(region))
}

// RestoreEngineBytes restores a Snapshot image held fully in memory (or
// memory-mapped — see RestoreEngineFile). For v3+ images the window region is
// sliced straight out of data without an intermediate copy of the image,
// which is what makes hydrating a parked engine from a mapped checkpoint
// cheap; data is not retained after the call returns. Older images go
// through the streaming path.
func RestoreEngineBytes(data []byte) (*Engine, error) {
	return restoreEngineBytes(data, nil)
}

func restoreEngineBytes(data []byte, expect *Config) (*Engine, error) {
	if len(data) < snapHeaderLen+4 {
		return nil, fmt.Errorf("core: restore: image too short (%d bytes)", len(data))
	}
	if string(data[:8]) != snapMagic {
		return nil, fmt.Errorf("core: restore: bad magic %q (not a TKCM snapshot)", data[:8])
	}
	version := binary.LittleEndian.Uint32(data[8:12])
	if version < snapVersionMin || version > snapVersion {
		return nil, fmt.Errorf("core: restore: unsupported snapshot version %d (want %d..%d)", version, snapVersionMin, snapVersion)
	}
	if version < 3 {
		return restoreEngine(bytes.NewReader(data), expect)
	}
	metaLen := binary.LittleEndian.Uint64(data[12:20])
	if metaLen > uint64(len(data)-snapHeaderLen-4) {
		return nil, fmt.Errorf("core: restore: meta length %d exceeds the %d-byte image", metaLen, len(data))
	}
	meta := data[snapHeaderLen : snapHeaderLen+int(metaLen)]
	crcOff := snapHeaderLen + int(metaLen)
	if want, got := binary.LittleEndian.Uint32(data[crcOff:]), crc32.ChecksumIEEE(meta); want != got {
		return nil, fmt.Errorf("core: restore: meta checksum mismatch (snapshot corrupt)")
	}
	m, windowOff, err := parseV3Meta(meta, version, expect)
	if err != nil {
		return nil, err
	}
	windowBytes := int64(len(m.names)) * int64(m.filled) * 8
	if windowBytes > maxSnapSection {
		return nil, fmt.Errorf("core: restore: implausible window region size %d", windowBytes)
	}
	total := int64(windowOff) + windowBytes + 4
	if int64(len(data)) < total {
		return nil, fmt.Errorf("core: restore: window region truncated (image is %d bytes, layout needs %d)", len(data), total)
	}
	if int64(len(data)) > total {
		return nil, fmt.Errorf("core: restore: %d trailing bytes after the window region", int64(len(data))-total)
	}
	for _, b := range data[crcOff+4 : windowOff] {
		if b != 0 {
			return nil, fmt.Errorf("core: restore: nonzero padding before the window region")
		}
	}
	region := data[windowOff : int64(windowOff)+windowBytes]
	if want, got := binary.LittleEndian.Uint32(data[total-4:]), crc32.ChecksumIEEE(region); want != got {
		return nil, fmt.Errorf("core: restore: window checksum mismatch (snapshot corrupt)")
	}
	return m.finish(decodeWindowRegion(region))
}

// parseV3Meta decodes a v3+ meta section and its trailing windowOff field,
// then validates the image geometry: the window region must start
// page-aligned, strictly after the metaCRC, with less than one page of
// padding — so regions cannot overlap the meta section, and a region offset
// cannot be inflated to smuggle unchecked bytes into the image.
func parseV3Meta(meta []byte, version uint32, expect *Config) (*snapMeta, int, error) {
	dec := &snapDecoder{b: meta}
	m, err := decodeSnapMeta(dec, version, expect)
	if err != nil {
		return nil, 0, err
	}
	if version >= 4 {
		decodeProfilerState(dec, m)
	}
	off := dec.fixed64()
	if dec.err != nil {
		return nil, 0, fmt.Errorf("core: restore: %w", dec.err)
	}
	if dec.off != len(dec.b) {
		return nil, 0, fmt.Errorf("core: restore: %d trailing bytes in meta section", len(dec.b)-dec.off)
	}
	minOff := uint64(snapHeaderLen + len(meta) + 4)
	switch {
	case off%snapAlign != 0:
		return nil, 0, fmt.Errorf("core: restore: window offset %d is not %d-byte aligned", off, snapAlign)
	case off < minOff:
		return nil, 0, fmt.Errorf("core: restore: window offset %d overlaps the meta section (which ends at %d)", off, minOff)
	case off-minOff >= snapAlign:
		return nil, 0, fmt.Errorf("core: restore: window offset %d leaves more than one page of padding", off)
	}
	return m, int(off), nil
}

// decodeWindowRegion converts the raw stream-major window region into its
// float64 values.
func decodeWindowRegion(region []byte) []float64 {
	vals := make([]float64, len(region)/8)
	decodeFloats(vals, region)
	return vals
}

// decodeFloats fills dst with the little-endian float64s at the start of
// src, which must hold at least 8·len(dst) bytes.
func decodeFloats(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[:8]))
		src = src[8:]
	}
}

// snapMeta is the decoded meta section of an image: everything the restore
// needs except the window values themselves.
type snapMeta struct {
	cfg    Config
	names  []string
	refs   map[string]ReferenceSet
	tick   int
	wTick  int
	stats  EngineStats
	last   []float64
	filled int
	// inc holds each stream's profiler state (v4+); nil for older images
	// and engines without an incremental profiler.
	inc []incStreamImage
}

// decodeSnapMeta parses the meta fields shared by every format version
// (config through the retained tick count), with every count and length
// bounded by the bytes actually present, so a crafted image cannot allocate
// beyond its own size. The CRC only catches accidental corruption, never
// crafted images, and the public restore API must return errors — never
// panic or OOM.
func decodeSnapMeta(dec *snapDecoder, version uint32, expect *Config) (*snapMeta, error) {
	m := &snapMeta{}
	m.cfg = dec.decodeConfig(version)
	if expect != nil && dec.err == nil && m.cfg.Float32Profiles != expect.Float32Profiles {
		return nil, fmt.Errorf("core: restore: snapshot uses %s profile aggregates but the target config expects %s (set Config.Float32Profiles to match the image, or re-snapshot in the new precision)",
			profilePrecision(m.cfg.Float32Profiles), profilePrecision(expect.Float32Profiles))
	}
	// Bound the decoded dimensions before any size computed from them is
	// allocated or handed to the window constructor. The window's rings are
	// allocated eagerly (WindowLength floats per stream) and Workers sizes
	// the tick pool's scratch, so both are checked before NewEngine can
	// allocate from them. The caps are the same ones Validate enforces, so
	// every engine that could be snapshotted restores.
	if dec.err == nil && (m.cfg.WindowLength < 0 || m.cfg.WindowLength > MaxWindowLength) {
		dec.fail(fmt.Errorf("implausible window length %d", m.cfg.WindowLength))
	}
	if dec.err == nil && (m.cfg.Workers < 0 || m.cfg.Workers > MaxWorkers) {
		dec.fail(fmt.Errorf("implausible worker count %d", m.cfg.Workers))
	}

	// Count fields are bounded by the bytes actually present — every name
	// costs at least its 1-byte length prefix, every reference set at least 3
	// bytes — so a tiny crafted image cannot pre-allocate gigabytes from a
	// claimed count before the first string decode fails on truncation.
	nNames := int(dec.uint())
	if dec.err == nil && (nNames <= 0 || nNames > 1<<24 || nNames > len(dec.b)-dec.off) {
		dec.fail(fmt.Errorf("implausible stream count %d", nNames))
	}
	if dec.err != nil {
		return nil, fmt.Errorf("core: restore: %w", dec.err)
	}
	m.names = make([]string, nNames)
	seen := make(map[string]struct{}, nNames)
	for i := range m.names {
		m.names[i] = dec.str()
		// window.New panics on duplicate names; a crafted image must surface
		// as an error here instead.
		if _, dup := seen[m.names[i]]; dup && dec.err == nil {
			dec.fail(fmt.Errorf("duplicate stream name %q", m.names[i]))
		}
		seen[m.names[i]] = struct{}{}
	}

	nRefs := int(dec.uint())
	if dec.err == nil && (nRefs < 0 || nRefs > (len(dec.b)-dec.off)/3) {
		dec.fail(fmt.Errorf("implausible reference set count %d", nRefs))
	}
	if dec.err != nil {
		return nil, fmt.Errorf("core: restore: %w", dec.err)
	}
	m.refs = make(map[string]ReferenceSet, nRefs)
	for i := 0; i < nRefs && dec.err == nil; i++ {
		key := dec.str()
		rs := ReferenceSet{Stream: dec.str()}
		nc := int(dec.uint())
		for j := 0; j < nc && dec.err == nil; j++ {
			rs.Candidates = append(rs.Candidates, dec.str())
		}
		m.refs[key] = rs
	}

	m.tick = int(dec.int())
	m.wTick = int(dec.int())
	m.stats.Ticks = int(dec.int())
	m.stats.Imputations = int(dec.int())
	m.stats.ColdStartFills = int(dec.int())
	m.stats.ReferenceErrors = int(dec.int())
	m.stats.InsufficientHist = int(dec.int())

	m.last = make([]float64, nNames)
	for i := range m.last {
		m.last[i] = dec.float()
	}

	m.filled = int(dec.uint())
	if dec.err == nil && (m.filled < 0 || m.filled > m.cfg.WindowLength) {
		dec.fail(fmt.Errorf("retained length %d exceeds window length %d", m.filled, m.cfg.WindowLength))
	}
	if dec.err != nil {
		return nil, fmt.Errorf("core: restore: %w", dec.err)
	}
	return m, nil
}

// finish validates the tick counters against the decoded window values
// (stream-major, filled values per stream) and assembles the engine. The
// retained values are already imputed (complete). With profiler state in
// the image, each stream's history and aggregates are reinstated exactly;
// without it (images before v4), the windows are bulk-loaded through the
// columnar append path and the aggregates left to the demand-driven
// catch-up.
func (m *snapMeta) finish(hist []float64) (*Engine, error) {
	if m.wTick < m.filled-1 || m.tick < m.filled {
		return nil, fmt.Errorf("core: restore: tick counters (%d, %d) predate the %d retained values", m.tick, m.wTick, m.filled)
	}
	e, err := NewEngine(m.cfg, m.names, m.refs)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	if m.filled > 0 {
		cols := make([][]float64, len(m.names))
		for i := range cols {
			cols[i] = hist[i*m.filled : (i+1)*m.filled]
		}
		e.w.AdvanceColumns(cols, 0, m.filled)
		switch {
		case m.inc != nil:
			if e.inc == nil {
				e.Close()
				return nil, fmt.Errorf("core: restore: image carries incremental profiler state but its config runs the %s profiler", e.prof.Name())
			}
			for i := range m.inc {
				if err := e.inc.validateImage(&m.inc[i], m.filled); err != nil {
					e.Close()
					return nil, fmt.Errorf("core: restore: stream %d profiler state: %w", i, err)
				}
			}
			for i := range cols {
				e.inc.restoreStream(i, cols[i], &m.inc[i])
			}
		case e.inc != nil:
			for i := range cols {
				e.inc.AdvanceBulk(i, cols[i])
			}
		}
	}
	e.tick = m.tick
	e.w.SetTick(m.wTick)
	e.Stats = m.stats
	copy(e.last, m.last)
	return e, nil
}

// snapEncoder accumulates the snapshot payload.
type snapEncoder struct {
	buf     bytes.Buffer
	scratch [binary.MaxVarintLen64]byte
}

func (e *snapEncoder) uint(v uint64) {
	n := binary.PutUvarint(e.scratch[:], v)
	e.buf.Write(e.scratch[:n])
}

func (e *snapEncoder) int(v int64) {
	n := binary.PutVarint(e.scratch[:], v)
	e.buf.Write(e.scratch[:n])
}

func (e *snapEncoder) bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf.WriteByte(b)
}

func (e *snapEncoder) float(v float64) {
	binary.LittleEndian.PutUint64(e.scratch[:8], math.Float64bits(v))
	e.buf.Write(e.scratch[:8])
}

func (e *snapEncoder) floats(vs []float64) {
	e.uint(uint64(len(vs)))
	for _, v := range vs {
		e.float(v)
	}
}

func (e *snapEncoder) fixed64(v uint64) {
	binary.LittleEndian.PutUint64(e.scratch[:8], v)
	e.buf.Write(e.scratch[:8])
}

func (e *snapEncoder) str(s string) {
	e.uint(uint64(len(s)))
	e.buf.WriteString(s)
}

func (e *snapEncoder) encodeConfig(c Config) {
	e.int(int64(c.K))
	e.int(int64(c.PatternLength))
	e.int(int64(c.D))
	e.int(int64(c.WindowLength))
	e.int(int64(c.Norm))
	e.int(int64(c.Selection))
	e.int(int64(c.Profiler))
	e.int(int64(c.Workers))
	e.bool(c.WeightedMean)
	e.bool(c.EagerProfiler)
	e.bool(c.SkipDiagnostics)
	e.bool(c.FastExtraction)
	e.bool(c.Float32Profiles) // v2+
}

// profilePrecision names a profile-aggregate precision for error messages.
func profilePrecision(f32 bool) string {
	if f32 {
		return "float32"
	}
	return "float64"
}

// snapDecoder parses a payload with a sticky error: after the first failure
// every accessor returns a zero value, so call sites stay linear.
type snapDecoder struct {
	b   []byte
	off int
	err error
}

func (d *snapDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *snapDecoder) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail(fmt.Errorf("truncated varint at offset %d", d.off))
		return 0
	}
	d.off += n
	return v
}

func (d *snapDecoder) int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail(fmt.Errorf("truncated varint at offset %d", d.off))
		return 0
	}
	d.off += n
	return v
}

func (d *snapDecoder) bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) {
		d.fail(fmt.Errorf("truncated bool at offset %d", d.off))
		return false
	}
	v := d.b[d.off]
	d.off++
	return v != 0
}

func (d *snapDecoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail(fmt.Errorf("truncated float at offset %d", d.off))
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// floats decodes a length-prefixed float64 slice with capacity capHint
// when that is at most 4× its length, so a caller that keeps the slice and
// may grow it to capHint need not copy it.
func (d *snapDecoder) floats(capHint int) []float64 {
	return d.floatsN(d.uint(), capHint)
}

// floatsN decodes n float64s, bounding n by the bytes present before
// allocating. The capacity is capHint when n ≤ capHint ≤ 4n, else n, so
// the allocation stays within a small multiple of the bytes decoded.
func (d *snapDecoder) floatsN(n uint64, capHint int) []float64 {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off)/8 {
		d.fail(fmt.Errorf("truncated float slice at offset %d", d.off))
		return nil
	}
	c := int(n)
	if capHint > c && capHint <= 4*c {
		c = capHint
	}
	vs := make([]float64, n, c)
	decodeFloats(vs, d.b[d.off:])
	d.off += 8 * len(vs)
	return vs
}

func (d *snapDecoder) fixed64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail(fmt.Errorf("truncated uint64 at offset %d", d.off))
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *snapDecoder) str() string {
	n := int(d.uint())
	if d.err != nil {
		return ""
	}
	// Compare n against the remaining bytes without computing d.off+n: for a
	// crafted length near 2^63-1 the sum would overflow int to a negative
	// value and slip past the bound into a panicking slice expression.
	if n < 0 || n > len(d.b)-d.off {
		d.fail(fmt.Errorf("truncated string at offset %d", d.off))
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *snapDecoder) decodeConfig(version uint32) Config {
	var c Config
	c.K = int(d.int())
	c.PatternLength = int(d.int())
	c.D = int(d.int())
	c.WindowLength = int(d.int())
	c.Norm = Norm(d.int())
	c.Selection = Selection(d.int())
	c.Profiler = ProfilerKind(d.int())
	c.Workers = int(d.int())
	c.WeightedMean = d.bool()
	c.EagerProfiler = d.bool()
	c.SkipDiagnostics = d.bool()
	c.FastExtraction = d.bool()
	if version >= 2 {
		c.Float32Profiles = d.bool()
	}
	return c
}
