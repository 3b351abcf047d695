//go:build !amd64

package scan

// No vector bodies on this architecture: the vector wrappers of kernels.go
// are never reached and the portable kernels run everywhere.
const useVector = false

func countBlocks32([]uint32, uint32, uint32) int { panic("scan: no vector kernel") }

func countBlocks64([]int64, uint64, uint64) int { panic("scan: no vector kernel") }

func minMaxBlocks32([]uint32) (uint32, uint32) { panic("scan: no vector kernel") }

func minMaxBlocks64([]int64) (int64, int64) { panic("scan: no vector kernel") }

func probeBlocks32([]uint32, []uint32, uint32, uint32) (uint64, uint64) {
	panic("scan: no vector kernel")
}
