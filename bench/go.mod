module graphdiam/bench

go 1.22

require graphdiam v0.0.0

replace graphdiam => ../
