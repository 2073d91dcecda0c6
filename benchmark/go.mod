module blastfunction/benchmark

go 1.22

require blastfunction v0.0.0

replace blastfunction => ../
