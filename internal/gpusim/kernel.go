package gpusim

import "ssmdvfs/internal/isa"

// Kernel re-exports the isa workload type so simulator users only import
// one package for the common path.
type Kernel = isa.Kernel
