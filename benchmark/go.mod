module trusthmd/benchmark

go 1.24

require trusthmd v0.0.0

replace trusthmd => ../
