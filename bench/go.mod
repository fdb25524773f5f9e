module energyclarity/bench

go 1.22

require energyclarity v0.0.0

replace energyclarity => ../
