module github.com/tman-db/tman/benchmark

go 1.22

require github.com/tman-db/tman v0.0.0

replace github.com/tman-db/tman => ../
