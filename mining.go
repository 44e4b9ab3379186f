package optrr

import (
	"optrr/internal/mining"
	"optrr/internal/rr"
)

// This file re-exports the privacy-preserving data-mining layer: the
// multi-dimensional randomized response of the paper's future-work section
// and the downstream consumers (decision trees, association rules, naive
// Bayes) that Sections I–II motivate.

// MultiRR disguises and reconstructs multi-attribute categorical data with
// one RR matrix per attribute: the Kronecker-product channel rr.Product.
type MultiRR = rr.Product

// Tree is a decision tree trained on a reconstructed joint distribution.
type Tree = mining.Tree

// TreeConfig controls decision-tree growth.
type TreeConfig = mining.TreeConfig

// NaiveBayes is a classifier trained on disguised records.
type NaiveBayes = mining.NaiveBayes

// BasketMiner estimates itemset supports from disguised basket data.
type BasketMiner = mining.BasketMiner

// Itemset is a frequent itemset with its reconstructed support.
type Itemset = mining.Itemset

// Rule is an association rule with reconstructed support and confidence.
type Rule = mining.Rule

// NewMultiRR builds a multi-dimensional disguiser from per-attribute
// matrices.
func NewMultiRR(ms ...*Matrix) (*MultiRR, error) { return rr.NewProduct(ms...) }

// BuildTree grows an ID3 decision tree for classAttr from a (reconstructed)
// joint distribution over mr's schema.
func BuildTree(mr *MultiRR, joint []float64, classAttr int, cfg TreeConfig) (*Tree, error) {
	return mining.BuildTree(mr, joint, classAttr, cfg)
}

// TrainNaiveBayes reconstructs a naive-Bayes classifier from disguised
// records.
func TrainNaiveBayes(mr *MultiRR, disguised [][]int, classAttr int, alpha float64) (*NaiveBayes, error) {
	return mining.TrainNaiveBayes(mr, disguised, classAttr, alpha)
}

// NewBasketMiner wraps disguised binary baskets with their per-item RR
// matrices.
func NewBasketMiner(ms []*Matrix, disguised [][]int) (*BasketMiner, error) {
	return mining.NewBasketMiner(ms, disguised)
}

// ClipDistribution projects an inversion estimate onto the probability
// simplex (negative components zeroed, rest renormalized).
func ClipDistribution(p []float64) []float64 { return rr.Clip(p) }

// IndependenceResult reports a chi-square independence test run on
// disguised data.
type IndependenceResult = mining.IndependenceResult

// ChiSquareIndependence tests whether attributes attrA and attrB of the
// disguised records are independent, with the sample size adjusted for the
// disguise noise.
func ChiSquareIndependence(mr *MultiRR, disguised [][]int, attrA, attrB int) (IndependenceResult, error) {
	return mining.ChiSquareIndependence(mr, disguised, attrA, attrB)
}
