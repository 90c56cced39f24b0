module incdb/bench

go 1.22

require incdb v0.0.0

replace incdb => ../
