module dita/bench

go 1.22

require dita v0.0.0

replace dita => ../
