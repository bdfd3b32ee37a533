module ssmdvfs/bench

go 1.22

require ssmdvfs v0.0.0

replace ssmdvfs => ../
