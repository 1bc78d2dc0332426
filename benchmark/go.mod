module kaleido/benchmark

go 1.21

require kaleido v0.0.0

replace kaleido => ../
