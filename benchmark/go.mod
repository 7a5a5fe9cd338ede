// The benchmark is a module of its own because the benchmark contract
// wants a compiled benchmark to be a package with its own build file.
// The module path keeps the "portland/" prefix: that is what lets it
// import portland/internal/... through the replace below. The root
// module's `go test ./...` does not reach it; run.sh compiles it
// against the repo on every benchmark run.
module portland/benchmark

go 1.22

require portland v0.0.0

replace portland => ../
