"""CNN benchmarks: VGG416 and ResNet1K.

Both are the deep CNN variants prior GPU-memory-virtualization work
evaluates.  Unlike the transformers they are built through the module
tracer: VGG416 is a plain chain; ResNet1K has residual skip edges that the
Decomposer must sequentialize (Figure 6), so it exercises the full
trace -> sequentialize path.

Layer counts match the paper's scheduling tables: VGG416 spans L0-416 and
ResNet1K spans L0-1029 (Table 5).
"""

from __future__ import annotations

from repro.graph.layer import FP32_BYTES, LayerSpec
from repro.graph.sequentialize import sequentialize
from repro.graph.tracer import (
    Add,
    Conv2d,
    Dense,
    Leaf,
    Module,
    Pool2d,
    SymbolicTensor,
    trace,
)
from repro.models.spec import ModelSpec

IMAGENET_SAMPLE_BYTES = 3 * 224 * 224 * FP32_BYTES
IMAGENET_CLASSES = 1000


class _Loss(Leaf):
    """Cross-entropy over class logits; reduces to a scalar."""

    def build_spec(self, index: int, inputs: tuple[SymbolicTensor, ...]) -> LayerSpec:
        (x,) = inputs
        return LayerSpec(
            index=index,
            name=f"loss{index}",
            kind="loss",
            param_bytes=0,
            flops_fwd_per_sample=5.0 * x.bytes_per_sample / FP32_BYTES,
            act_in_bytes_per_sample=x.bytes_per_sample,
            act_out_bytes_per_sample=FP32_BYTES,
            bwd_flops_ratio=1.0,
        )


class _Vgg416(Module):
    """VGG scaled to depth 417 (L0-416): 82 convs per stage, 5 stages.

    82 * 5 convs + 5 pools + fc + classifier = 417 layers.
    """

    STAGES = [
        # (in_channels, out_channels, spatial, n_convs)
        (3, 64, 224, 82),
        (64, 128, 112, 82),
        (128, 256, 56, 82),
        (256, 512, 28, 82),
        (512, 512, 14, 82),
    ]

    def forward(self, x: SymbolicTensor) -> SymbolicTensor:
        for in_ch, out_ch, spatial, n_convs in self.STAGES:
            x = Conv2d(in_ch, out_ch, spatial)(x)
            for _ in range(n_convs - 1):
                x = Conv2d(out_ch, out_ch, spatial)(x)
            x = Pool2d(out_ch, spatial)(x)
        x = Dense(512 * 7 * 7, 4096, name="fc")(x)
        x = Dense(4096, IMAGENET_CLASSES, name="classifier")(x)
        return x


class _ResNet1K(Module):
    """Pre-activation-style ResNet of depth 1030 (L0-1029).

    stem(1) + 3 transitions + 341 basic blocks (x3 layers) + pool + fc +
    loss = 1030 layers.  Every basic block contributes a residual skip
    edge spanning its two convs, so the traced graph branches heavily.
    """

    STAGES = [
        # (channels, spatial, n_blocks)
        (64, 56, 86),
        (128, 28, 85),
        (256, 14, 85),
        (512, 7, 85),
    ]

    def forward(self, x: SymbolicTensor) -> SymbolicTensor:
        x = Conv2d(3, 64, 224, kernel=7, stride=4, name="stem")(x)
        prev_channels = 64
        for channels, spatial, n_blocks in self.STAGES:
            if channels != prev_channels:
                x = Conv2d(prev_channels, channels, spatial * 2, stride=2,
                           name="transition")(x)
                prev_channels = channels
            for _ in range(n_blocks):
                skip = x
                y = Conv2d(channels, channels, spatial)(x)
                y = Conv2d(channels, channels, spatial)(y)
                x = Add()(y, skip)
        x = Pool2d(512, 7, factor=7)(x)
        x = Dense(512, IMAGENET_CLASSES, name="fc")(x)
        x = _Loss()(x)
        return x


def build_vgg416() -> ModelSpec:
    graph = trace(_Vgg416(), IMAGENET_SAMPLE_BYTES, name="vgg416")
    graph = sequentialize(graph)
    return ModelSpec(
        name="vgg416",
        graph=graph,
        optimizer="sgd",
        sample_bytes=IMAGENET_SAMPLE_BYTES,
        description="VGG variant scaled to 417 layers, ImageNet, SGD",
    )


def build_resnet1k() -> ModelSpec:
    graph = trace(_ResNet1K(), IMAGENET_SAMPLE_BYTES, name="resnet1k")
    graph = sequentialize(graph)
    return ModelSpec(
        name="resnet1k",
        graph=graph,
        optimizer="sgd",
        sample_bytes=IMAGENET_SAMPLE_BYTES,
        description="ResNet variant with 1030 layers, ImageNet, SGD",
    )


def tiny_cnn(n_blocks: int = 3) -> ModelSpec:
    """A small residual CNN for unit tests of the tracer/sequentializer."""

    class _Tiny(Module):
        def forward(self, x: SymbolicTensor) -> SymbolicTensor:
            x = Conv2d(3, 8, 32, name="stem")(x)
            for _ in range(n_blocks):
                skip = x
                y = Conv2d(8, 8, 32)(x)
                y = Conv2d(8, 8, 32)(y)
                x = Add()(y, skip)
            x = Pool2d(8, 32, factor=8)(x)
            x = Dense(8 * 4 * 4, 10, name="fc")(x)
            x = _Loss()(x)
            return x

    sample = 3 * 32 * 32 * FP32_BYTES
    graph = sequentialize(trace(_Tiny(), sample, name=f"tiny-cnn-{n_blocks}"))
    return ModelSpec(
        name=f"tiny-cnn-{n_blocks}",
        graph=graph,
        optimizer="sgd",
        sample_bytes=sample,
    )
