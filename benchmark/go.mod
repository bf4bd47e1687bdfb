module bestring/benchmark

go 1.24

require bestring v0.0.0

replace bestring => ../
