package exp

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/journal"
)

// A study's row store is a directory of row files, one per completed
// sweep stage, named by the stage key Collect deduplicates by. The key
// hashes the session configuration (window included) and the grid, so a
// file is found only by the exact grid it was simulated for. A stage is
// written once, whole, when it completes; a file is never appended to.

// CommittedWindow is the measurement window of the committed row store
// results/full (EXPERIMENTS.md gives the convergence study it was chosen
// from).
const CommittedWindow = 300_000

// rowFile is the path of a stage's row file in dir.
func rowFile(dir, key string) string {
	return filepath.Join(dir, strings.ReplaceAll(key, "/", "_")+".csv")
}

// readRows decodes the row file at path into g's cases under scheme. It
// reports found false, and no error, when there is no such file.
func readRows(path string, g Grid, scheme core.Scheme) (c []Case, found bool, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	c, err = g.decodeRows(path, data, scheme)
	return c, true, err
}

// writeRows writes the complete cases of g as the row file at path,
// atomically (journal.WriteFile), so a killed run leaves either the whole
// stage or nothing.
func writeRows(path string, g Grid, c []Case) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return journal.WriteFile(path, g.encodeRows(c))
}
