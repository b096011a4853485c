module cfs/benchmark

go 1.24

require cfs v0.0.0

replace cfs => ../
