module netclus/benchmark

go 1.22

require netclus v0.0.0

replace netclus => ../
