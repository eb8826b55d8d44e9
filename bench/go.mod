module teechain/bench

go 1.23

require teechain v0.0.0

replace teechain => ../
