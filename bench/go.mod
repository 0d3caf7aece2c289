module dlrmcomp/bench

go 1.24

require dlrmcomp v0.0.0

replace dlrmcomp => ../
