module graft/bench

go 1.24

require graft v0.0.0

replace graft => ../
