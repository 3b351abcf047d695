module adskip/benchmark

go 1.22

require adskip v0.0.0

replace adskip => ../
