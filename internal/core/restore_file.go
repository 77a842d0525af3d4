package core

import (
	"fmt"
	"os"
)

// RestoreEngineFile restores a Snapshot image from a file. On platforms that
// support it the file is memory-mapped for the duration of the restore, so a
// v3+ image's page-aligned window region bulk-loads straight from the page
// cache without staging the whole image through a heap buffer — the cheap
// path engine hydration (internal/shard residency) leans on. The mapping is
// released before the call returns; platforms without mmap fall back to
// reading the file into memory.
func RestoreEngineFile(path string) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	if data, unmap, merr := mapFile(f, st.Size()); merr == nil {
		defer unmap()
		return RestoreEngineBytes(data)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	return RestoreEngineBytes(data)
}
