module corm/bench

go 1.22

require corm v0.0.0

replace corm => ../
