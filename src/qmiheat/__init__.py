"""Training and inference toolkit for lightweight binary-detection CNNs
regularized by a pairwise-information term on their embeddings.

The package covers the full loop: synthetic dataset generation, SGD
training with the regularizer attached to the penultimate convolution,
full-frame heatmap inference validated against a sliding-window oracle,
and rank-based comparison of method accuracies across datasets.

Everything runs on numpy alone; the convolutions are float32 BLAS matrix
products.  The Python API is the submodules (``qmiheat.data``,
``qmiheat.training``, ``qmiheat.heatmap`` and so on); importing the
package itself loads none of them.
"""
