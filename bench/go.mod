module github.com/psi-graph/psi/bench

go 1.24.0

require github.com/psi-graph/psi v0.0.0

replace github.com/psi-graph/psi => ../
