//go:build !amd64

package scan

// No vector bodies on this architecture: countVector32 and countVector64
// are never reached and the portable kernels run everywhere.
const useVector = false

func countBlocks32([]uint32, uint32, uint32) int { panic("scan: no vector kernel") }

func countBlocks64([]int64, uint64, uint64) int { panic("scan: no vector kernel") }
