module raha/bench

go 1.24

require raha v0.0.0

replace raha => ../
