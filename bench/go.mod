module shangrila/bench

go 1.22

require shangrila v0.0.0

replace shangrila => ../
