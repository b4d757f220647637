package lib

func kernelWidth() int { return 16 }
