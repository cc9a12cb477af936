module flashfc/bench

go 1.22

require flashfc v0.0.0

replace flashfc => ../
