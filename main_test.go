package streambox_test

import (
	"os"
	"testing"

	"streambox/internal/mempool"
)

// TestMain runs the package — the crash-recovery helper subprocess
// included, it re-executes this binary — under the pool's poison mode: a
// column slab is overwritten the moment it goes back, so a bundle read
// after its last Release turns the equivalence tests here into digest
// mismatches instead of reads of rows that happened to survive.
func TestMain(m *testing.M) {
	mempool.PoisonCols.Store(true)
	os.Exit(m.Run())
}
