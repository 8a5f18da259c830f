module streambox/benchmark

go 1.24

require streambox v0.0.0

replace streambox => ../
